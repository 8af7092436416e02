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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._memo import variant_get, variant_put
from repro._rng import (
    Draw,
    DrawItem,
    SeedPrefix,
    directions,
    normalize,
    seed_for,
)
from repro.core.journal import SnapCounter
from repro.diffusion.latent import SyntheticImage
from repro.diffusion.registry import ModelSpec
from repro.diffusion.schedule import NoiseSchedule
from repro.embedding.space import SemanticSpace
from repro.embedding.text_encoder import PromptLike, prompt_mixture

#: Stream names for the deterministic noise sources.
_NAT_STREAM = "residual-natural"
_MODEL_STREAM = "residual-model"
_FINGERPRINT_STREAM = "model-fingerprint"
_SET_STREAM = "set-shift"
_IMAGE_STREAM = "image-noise"
_GENERIC_STREAM = "generic-direction"
_JITTER_STREAM = "alignment-jitter"

_MEMO_MAX = 150_000

#: Memoized target/artifact directions and finished image contents,
#: shared process-wide.  All are pure functions of their keys: the key
#: prefix pins the full spec parametrization (via its digest) and the
#: space geometry; prompt ids pin prompt content by the workload contract
#: (a prompt id identifies one immutable prompt).  The caches survive
#: across system instances — the regime where they pay off: experiment
#: suites drive the same trace through several serving systems and
#: replays, and every system re-renders the same prompts.
#:
#: ``_CONTENT_CACHE`` holds both generation paths under one size bound.
#: A generated content is keyed ``prefix + (image_id,)``.  A refined
#: content also depends on its source image's content, which the
#: source id does not pin (a refined image's id does not encode the
#: skip depth that produced it, so the same source id can carry
#: different content under different serving configs): it is a
#: :mod:`repro._memo` variant entry, keyed ``prefix + (image_id, skip,
#: variant)`` and holding ``(source content, content)``.
_TARGET_CACHE: Dict[Tuple, np.ndarray] = {}
_ARTIFACT_CACHE: Dict[Tuple, np.ndarray] = {}
_CONTENT_CACHE: Dict[Tuple, Any] = {}


def clear_model_memos() -> None:
    """Drop every process-wide model memo (targets, artifacts, contents).

    Benchmarks call this to measure cold-start behaviour; correctness
    never depends on it (all memoized values are pure).
    """
    _TARGET_CACHE.clear()
    _ARTIFACT_CACHE.clear()
    _CONTENT_CACHE.clear()


def _memo_store(cache: Dict[Tuple, np.ndarray], key: Tuple, value: np.ndarray) -> None:
    value.flags.writeable = False
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
        items, assemble = self._target_plan(prompt, seed, alignment, realism)
        return assemble(directions.draw_batch(items))

    def _target_plan(
        self,
        prompt: PromptLike,
        seed: str,
        alignment: Optional[float],
        realism: Optional[float],
    ) -> Tuple[List[DrawItem], Callable[[Sequence[Draw]], np.ndarray]]:
        """The keyed draws a target needs, and its assembly from them.

        Returns ``(items, assemble)``: ``items`` are
        :meth:`DirectionCache.draw_batch` items (empty on a target-memo
        hit) and ``assemble(drawn)`` builds, memoizes and returns the
        target from their draws, in item order.  Callers append their own
        per-image draws so that one batch seeds the whole image.
        """
        spec = self._spec
        cache_key = self._memo_prefix + (
            prompt.prompt_id,
            seed,
            alignment,
            realism,
        )
        cached = _TARGET_CACHE.get(cache_key)
        if cached is not None:
            return [], lambda drawn: cached
        dim = self._space.config.semantic_dim
        jittered = spec.alignment_jitter > 0.0
        items: List[DrawItem] = []
        if jittered:
            items.append(
                (None, True, self._jitter_seeds(prompt.prompt_id, seed))
            )
        items.append((dim, True, self._natural_seeds(prompt.prompt_id)))
        # The artifact direction is pure in (model, prompt); it recurs when
        # the same prompt is rendered again (ground-truth sets, baseline
        # comparisons over one trace, repeated experiment runs).  Only its
        # normalized form is memoized: every caller reads that first, so
        # a memo of the raw draw would never be read.
        artifact_key = self._memo_prefix + (prompt.prompt_id,)
        artifact = _ARTIFACT_CACHE.get(artifact_key)
        if artifact is None:
            items.append((dim, False, self._artifact_seeds(prompt.prompt_id)))
        items.append((dim, True, self._set_seeds(seed)))

        def assemble(drawn: Sequence[Draw]) -> np.ndarray:
            mixture = prompt_mixture(self._space, prompt)
            aligned = spec.alignment if alignment is None else alignment
            real = spec.realism if realism is None else realism
            pos = 0
            if jittered:
                shifted = aligned + spec.alignment_jitter * drawn[0]
                # Same clamp as np.clip(shifted, 0.05, 0.98).
                aligned = min(max(shifted, 0.05), 0.98)
                pos = 1
            # The model's intrinsic artifact budget is fixed by its
            # standalone alignment; any further alignment loss becomes
            # generic content.
            artifact_scale = self._artifact_scale
            deficit_scale = math.sqrt(
                max(0.0, 1.0 - aligned**2 - artifact_scale**2)
            )
            natural = drawn[pos]
            pos += 1
            art = artifact
            if art is None:
                art = normalize(
                    self._fingerprint_part
                    + self._idiosyncratic_weight * drawn[pos]
                )
                pos += 1
                _memo_store(_ARTIFACT_CACHE, artifact_key, art)
            residual = normalize(real * natural + (1.0 - real) * art)
            target = normalize(
                aligned * mixture
                + artifact_scale * residual
                + deficit_scale * natural
                + spec.set_shift * drawn[pos]
            )
            _memo_store(_TARGET_CACHE, cache_key, target)
            return target

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
        """Full ``T``-step generation from pure noise (cache-miss path)."""
        image_id = self._next_image_id(prompt.prompt_id, seed)
        # The finished content is pure in (spec, space, prompt, seed,
        # image id) — the id pins prompt and seed, plus the per-sim
        # sequence position that keys the sampling noise.
        content_key = self._memo_prefix + (image_id,)
        content = _CONTENT_CACHE.get(content_key)
        if content is None:
            items, assemble = self._target_plan(prompt, seed, None, None)
            items.append(self._noise_item(image_id))
            drawn = self._draw_image(items, image_id)
            content = self._finish(assemble(drawn), drawn[-1])
            _memo_store(_CONTENT_CACHE, content_key, content)
        image = SyntheticImage(
            image_id=image_id,
            prompt_id=prompt.prompt_id,
            model_name=self._spec.name,
            content=content,
            created_at=created_at,
            steps_run=self._spec.total_steps,
            skipped_steps=0,
            source_image_id=None,
            seed=seed,
            size_bytes=self._spec.image_bytes,
        )
        return GenerationResult(
            image=image,
            steps_run=self._spec.total_steps,
            skipped_steps=0,
        )

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
            _CONTENT_CACHE, content_key, source.content
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
                prompt, seed, alignment, realism
            )
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
                items.append(
                    (
                        self._space.config.semantic_dim,
                        False,
                        self._generic_seeds(image_id),
                    )
                )
            items.append(self._noise_item(image_id))
            drawn = self._draw_image(items, image_id)
            blend = normalize(
                anchor * normalize(source.content)
                + (1.0 - anchor) * assemble(drawn)
            )
            if drift > 0.0:
                blend = normalize((1.0 - drift) * blend + drift * drawn[-2])
            content = self._finish(blend, drawn[-1])
            variant_put(
                _CONTENT_CACHE, content_key, variant, source.content,
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

    def _draw_image(self, items: List[DrawItem], image_id: str) -> List[Draw]:
        """Draw one image's ``items``, plus its image-encoder noise.

        Every finished image is embedded by the image encoder, whose
        per-image noise stream is keyed by the image id.  That draw joins
        the image's batch, so one packed replay seeds all of the image's
        streams, and is parked in :data:`directions` for the encoder's
        :meth:`~repro._rng.DirectionCache.fresh_unit`.  Returns the draws
        of ``items`` alone, in order.
        """
        space = self._space
        if space.config.image_encoder_noise <= 0.0:
            return directions.draw_batch(items)
        dim = space.config.semantic_dim
        seed = space.image_noise_seed(image_id)
        items.append((dim, False, seed))
        drawn = directions.draw_batch(items)
        directions.park(dim, seed, drawn.pop())
        return drawn

    def _finish(self, direction: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Apply per-image sampling noise and return the final content."""
        return normalize(direction + self._spec.image_noise * noise)

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
