"""Tests for the de-noising simulator's generation dynamics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.diffusion.model import DiffusionModelSim
from repro.diffusion.registry import MODEL_ZOO, get_model
from repro.embedding.space import cosine
from repro.embedding.text_encoder import prompt_mixture


class TestGenerate:
    def test_content_unit_norm(self, large_model, prompts):
        image = large_model.generate(prompts[0], seed="t").image
        assert np.isclose(np.linalg.norm(image.content), 1.0)

    def test_metadata(self, large_model, prompts):
        result = large_model.generate(prompts[0], seed="t", created_at=5.0)
        assert result.steps_run == 50
        assert result.skipped_steps == 0
        assert result.image.prompt_id == prompts[0].prompt_id
        assert result.image.model_name == "sd3.5-large"
        assert result.image.created_at == 5.0
        assert not result.image.is_refinement

    def test_unique_image_ids(self, large_model, prompts):
        a = large_model.generate(prompts[0], seed="t").image
        b = large_model.generate(prompts[0], seed="t").image
        assert a.image_id != b.image_id

    def test_aligned_with_prompt_mixture(self, space, large_model, prompts):
        image = large_model.generate(prompts[0], seed="t").image
        mix = prompt_mixture(space, prompts[0])
        assert cosine(image.content, mix) > 0.6

    def test_seed_changes_content(self, large_model, prompts):
        a = large_model.generate(prompts[0], seed="seed-a").image
        b = large_model.generate(prompts[0], seed="seed-b").image
        assert not np.allclose(a.content, b.content)

    def test_large_more_aligned_than_turbo(self, space, prompts):
        large = DiffusionModelSim(get_model("SD3.5L"), space)
        turbo = DiffusionModelSim(get_model("SD3.5L-Turbo"), space)
        diffs = []
        for p in prompts[:40]:
            mix = prompt_mixture(space, p)
            a = cosine(large.generate(p, seed="cmp").image.content, mix)
            b = cosine(turbo.generate(p, seed="cmp").image.content, mix)
            diffs.append(a - b)
        assert np.mean(diffs) > 0.0


class TestRefine:
    def test_skip_bounds(self, small_model, large_model, prompts):
        src = large_model.generate(prompts[0], seed="t").image
        with pytest.raises(ValueError):
            small_model.refine(prompts[1], src, 51)
        with pytest.raises(ValueError):
            small_model.refine(prompts[1], src, -1)

    def test_steps_accounting(self, small_model, large_model, prompts):
        src = large_model.generate(prompts[0], seed="t").image
        result = small_model.refine(prompts[1], src, 30, seed="t")
        assert result.steps_run == 20
        assert result.skipped_steps == 30
        assert result.total_steps_equivalent == 50
        assert result.image.is_refinement
        assert result.image.source_image_id == src.image_id

    def test_higher_k_retains_more_source(
        self, small_model, large_model, prompts
    ):
        src = large_model.generate(prompts[0], seed="t").image
        lo = small_model.refine(prompts[1], src, 5, seed="t").image
        hi = small_model.refine(prompts[1], src, 30, seed="t").image
        assert cosine(hi.content, src.content) > cosine(
            lo.content, src.content
        )

    def test_refinement_moves_toward_new_prompt(
        self, space, small_model, large_model, prompts
    ):
        src = large_model.generate(prompts[0], seed="t").image
        refined = small_model.refine(prompts[60], src, 10, seed="t").image
        mix_new = prompt_mixture(space, prompts[60])
        assert cosine(refined.content, mix_new) > cosine(
            src.content, mix_new
        )

    def test_similar_source_refines_better(
        self, space, small_model, large_model, ddb_trace
    ):
        """Fig. 5a's slope: better retrieval -> better refined quality."""
        by_session = {}
        for r in ddb_trace:
            by_session.setdefault(r.prompt.session_id, []).append(r.prompt)
        sessions = [p for p in by_session.values() if len(p) >= 2]
        goods, bads = [], []
        for i in range(min(25, len(sessions) - 1)):
            target = sessions[i][1]
            mix = prompt_mixture(DiffusionModelSim(
                get_model("SDXL"), small_model.space).space, target)
            similar_src = large_model.generate(
                sessions[i][0], seed="t"
            ).image
            unrelated_src = large_model.generate(
                sessions[i + 1][0], seed="t"
            ).image
            goods.append(cosine(
                small_model.refine(target, similar_src, 25, seed="t")
                .image.content, mix))
            bads.append(cosine(
                small_model.refine(target, unrelated_src, 25, seed="t")
                .image.content, mix))
        assert np.mean(goods) > np.mean(bads)

    def test_turbo_scales_skip(self, space, large_model, prompts):
        turbo = DiffusionModelSim(get_model("SD3.5L-Turbo"), space)
        src = large_model.generate(prompts[0], seed="t").image
        skipped = turbo.schedule.scaled_skip(30 / 50)
        assert skipped == 6
        result = turbo.refine(prompts[1], src, skipped, seed="t")
        assert result.steps_run == 4


class TestRefinementTarget:
    def test_discount_reduces_alignment(self, space, prompts):
        small = DiffusionModelSim(get_model("SDXL"), space)
        mix = prompt_mixture(space, prompts[0])
        full = small.target_content(prompts[0], "t")
        refined = small.refinement_target(
            prompts[0], "t", structure_retention=0.6
        )
        assert cosine(refined, mix) < cosine(full, mix)

    def test_discount_grows_with_retention(self, space, prompts):
        small = DiffusionModelSim(get_model("SDXL"), space)
        mix = prompt_mixture(space, prompts[0])
        light = small.refinement_target(
            prompts[0], "t", structure_retention=0.1
        )
        heavy = small.refinement_target(
            prompts[0], "t", structure_retention=0.9
        )
        assert cosine(heavy, mix) < cosine(light, mix)

    def test_retention_bounds(self, space, prompts):
        small = DiffusionModelSim(get_model("SDXL"), space)
        with pytest.raises(ValueError):
            small.refinement_target(
                prompts[0], "t", structure_retention=1.5
            )


class TestSpecDigestDisambiguation:
    def test_different_specs_different_image_ids(self, space, prompts):
        a = DiffusionModelSim(MODEL_ZOO["sdxl"], space)
        b = DiffusionModelSim(
            dataclasses.replace(MODEL_ZOO["sdxl"], skip_penalty=0.5), space
        )
        img_a = a.generate(prompts[0], seed="t").image
        img_b = b.generate(prompts[0], seed="t").image
        assert img_a.image_id != img_b.image_id

    def test_same_spec_same_sequence_same_content(self, space, prompts):
        a = DiffusionModelSim(MODEL_ZOO["sdxl"], space)
        b = DiffusionModelSim(MODEL_ZOO["sdxl"], space)
        img_a = a.generate(prompts[0], seed="t").image
        img_b = b.generate(prompts[0], seed="t").image
        assert img_a.image_id == img_b.image_id
        assert np.allclose(img_a.content, img_b.content)


class TestContentPin:
    """Image contents of a fixed generate/refine sequence, byte for byte.

    The digest was recorded before per-image draws were batched; any
    change to how the keyed draws are seeded, memoized or assembled
    shows up here as a different digest.
    """

    CONTENT_SHA256 = (
        "4cf4438b82f1affc6cccf6070bf28e30b6761d2b327a490ed3d50d85c0347a4c"
    )

    #: Image embeddings of the same sequence, each image encoded four
    #: ways (see :meth:`test_sequence_embeddings_pinned`).
    EMBEDDING_SHA256 = (
        "cc828c80e12522ad5c796e20a390270290aea2e6622626896ae13968b1b6efb0"
    )

    @staticmethod
    def _run_sequence(space, prompts, on_image):
        """Run the pinned generate/refine sequence.

        ``on_image(image)`` is called after each step.
        """
        large = DiffusionModelSim(get_model("sd3.5-large"), space)
        small = DiffusionModelSim(get_model("sdxl"), space)
        steady = DiffusionModelSim(
            dataclasses.replace(MODEL_ZOO["sdxl"], alignment_jitter=0.0),
            space,
        )
        p0, p1, p2 = prompts[0], prompts[1], prompts[2]

        def step(result):
            on_image(result.image)
            return result.image

        src = step(large.generate(p0, seed="pin"))
        # Same prompt and seed: same target, fresh sampling noise.
        step(large.generate(p0, seed="pin"))
        step(large.generate(p1, seed="pin-b"))
        # Skip 0: no under-refinement residue.
        step(small.refine(p1, src, 0, seed="pin"))
        deep = step(small.refine(p2, src, 30, seed="pin"))
        # Same refinement target, new source.
        step(small.refine(p2, deep, 30, seed="pin"))
        # New seed: new target, same artifact direction.
        step(small.refine(p1, deep, 10, seed="pin-c"))
        # No alignment jitter draw.
        step(steady.generate(p2, seed="pin"))
        step(steady.refine(p0, src, 25, seed="pin"))

    def test_sequence_contents_pinned(self, space, prompts):
        import hashlib

        from repro.diffusion import model as model_mod

        model_mod.clear_model_memos()
        images = []
        self._run_sequence(space, prompts, images.append)
        digest = hashlib.sha256()
        for image in images:
            digest.update(image.image_id.encode("utf-8"))
            digest.update(image.content.tobytes())
        assert digest.hexdigest() == self.CONTENT_SHA256

    def test_sequence_embeddings_pinned(self, space, prompts):
        """Every encode order and encoder instance gives the same bytes.

        Each image is embedded right after its generation, again after
        the next generation, again after the direction memos are
        cleared, and by a second encoder instance.  The four embeddings
        must be equal, and their bytes are pinned.
        """
        import hashlib

        from repro._rng import directions
        from repro.core.serving import clear_hotpath_memos
        from repro.embedding.image_encoder import ClipLikeImageEncoder

        clear_hotpath_memos(space)
        encoder = ClipLikeImageEncoder(space, cache_embeddings=False)
        images, ways = [], []

        def on_image(image):
            if images:
                ways[-1].append(encoder.encode(images[-1]))
            images.append(image)
            ways.append([encoder.encode(image)])

        self._run_sequence(space, prompts, on_image)
        ways[-1].append(encoder.encode(images[-1]))
        directions.clear()
        second = ClipLikeImageEncoder(space, cache_embeddings=False)
        for image, encoded in zip(images, ways):
            encoded.append(encoder.encode(image))
            encoded.append(second.encode(image))
        digest = hashlib.sha256()
        for encoded in ways:
            assert len(encoded) == 4
            for embedding in encoded:
                assert embedding.tobytes() == encoded[0].tobytes()
                digest.update(embedding.tobytes())
        assert digest.hexdigest() == self.EMBEDDING_SHA256


class TestImageIdLenCap:
    """``image_id_len_cap`` — bounded image-id lineages (opt-in)."""

    def test_default_unbounded_embeds_full_source_id(
        self, space, small_model, large_model, prompts
    ):
        src = large_model.generate(prompts[0], seed="t").image
        refined = small_model.refine(prompts[1], src, 30, seed="t").image
        assert src.image_id in refined.image_id

    def test_capped_chain_length_stays_bounded(self, space, prompts):
        capped = DiffusionModelSim(
            get_model("sdxl"), space, image_id_len_cap=64
        )
        plain = DiffusionModelSim(get_model("sdxl"), space)
        capped_img = capped.generate(prompts[0], seed="t").image
        plain_img = plain.generate(prompts[0], seed="t").image
        capped_len = plain_len = 0
        for _ in range(32):
            capped_img = capped.refine(
                prompts[0], capped_img, 10, seed="t"
            ).image
            plain_img = plain.refine(
                prompts[0], plain_img, 10, seed="t"
            ).image
            capped_len = max(capped_len, len(capped_img.image_id))
            plain_len = max(plain_len, len(plain_img.image_id))
        # Unbounded, each refinement embeds the full source id (linear
        # growth with chain depth); capped, an over-cap source component
        # is replaced by its 17-char digest, so ids stay O(cap).
        assert capped_len < 64 + 120
        assert plain_len > 1_000

    def test_capped_ids_stay_unique(self, space, prompts):
        sim = DiffusionModelSim(
            get_model("sdxl"), space, image_id_len_cap=1
        )
        image = sim.generate(prompts[0], seed="t").image
        seen = {image.image_id}
        for _ in range(16):
            image = sim.refine(prompts[0], image, 10, seed="t").image
            assert image.image_id not in seen
            seen.add(image.image_id)

    def test_cap_none_is_bit_identical_to_pre_cap_format(
        self, space, prompts
    ):
        plain = DiffusionModelSim(get_model("sdxl"), space)
        threaded = DiffusionModelSim(
            get_model("sdxl"), space, image_id_len_cap=None
        )
        a = plain.generate(prompts[0], seed="t").image
        b = threaded.generate(prompts[0], seed="t").image
        assert a.image_id == b.image_id
        assert np.allclose(a.content, b.content)


def _refine_fresh(space, prompt, source):
    """Refine ``source`` on a fresh sim: its id counter restarts, so every
    call names the same refined image (same id, same skip)."""
    sim = DiffusionModelSim(get_model("sdxl"), space)
    return sim.refine(prompt, source, 20, seed="memo").image


def _frozen(content):
    content = content.copy()
    content.flags.writeable = False
    return content


class TestRefineContentMemo:
    """Refined contents are memoized by id and skip, plus a variant per
    bitwise-distinct source content (no content bytes in the key)."""

    @pytest.fixture
    def base(self, large_model, prompts):
        return large_model.generate(prompts[0], seed="memo").image

    def _pairs(self, base, large_model, prompts):
        plus = base.content.copy()
        plus[0] = 0.0
        minus = plus.copy()
        minus[0] = -0.0
        other = large_model.generate(prompts[2], seed="memo").image
        return {
            "sign-of-zero": (_frozen(plus), _frozen(minus)),
            "different": (base.content, other.content),
        }

    @pytest.mark.parametrize("pair", ["sign-of-zero", "different"])
    def test_two_sources_two_variants_each_cold_exact(
        self, space, large_model, prompts, base, pair
    ):
        from repro.diffusion import model as model_mod

        sources = [
            dataclasses.replace(base, content=content)
            for content in self._pairs(base, large_model, prompts)[pair]
        ]
        cold = []
        for source in sources:
            model_mod.clear_model_memos()
            cold.append(_refine_fresh(space, prompts[1], source))
        model_mod.clear_model_memos()
        first = [_refine_fresh(space, prompts[1], s) for s in sources]
        image_id = first[0].image_id
        assert first[1].image_id == image_id == cold[0].image_id
        variants = sorted(
            key[-1] for key in model_mod._REFINE_CACHE if image_id in key
        )
        assert variants == [0, 1]
        again = [_refine_fresh(space, prompts[1], s) for s in sources]
        for hit, fresh, reference in zip(again, first, cold):
            assert hit.content is fresh.content
            assert hit.content.tobytes() == reference.content.tobytes()

    def test_mutated_writeable_source_does_not_poison(
        self, space, large_model, prompts, base
    ):
        from repro.diffusion import model as model_mod

        other = large_model.generate(prompts[2], seed="memo").image.content
        model_mod.clear_model_memos()
        cold = _refine_fresh(
            space, prompts[1], dataclasses.replace(base, content=other)
        )
        model_mod.clear_model_memos()
        scratch = base.content.copy()
        source = dataclasses.replace(base, content=scratch)
        before = _refine_fresh(space, prompts[1], source)
        scratch[:] = other
        after = _refine_fresh(space, prompts[1], source)
        assert after.content.tobytes() == cold.content.tobytes()
        assert after.content.tobytes() != before.content.tobytes()


@dataclasses.dataclass(frozen=True)
class _BarePrompt:
    """A ``PromptLike`` without the workload's bookkeeping fields."""

    prompt_id: str
    semantics: np.ndarray
    tokens: tuple


class TestGenerateBatchOracle:
    """``generate_batch`` against sequential ``generate`` calls.

    Both run from the same state — the content memo cold, warm or partly
    warm, and some targets parked or none — built by a twin sim before
    each run.  The batch must return the same image ids and content
    bytes, leave the same content memo entries, and (through the parked
    encoder noise) give the same image embeddings, whichever encoder
    path embeds them.
    """

    @pytest.fixture(scope="class")
    def quiet_space(self):
        from repro.embedding.space import SemanticSpace, SpaceConfig

        return SemanticSpace(SpaceConfig(image_encoder_noise=0.0))

    @pytest.fixture(scope="class")
    def pool(self, prompts):
        """Ten trace prompts plus two with no tokens."""
        bare = [
            _BarePrompt(f"no-tokens-{i}", prompts[20 + i].semantics, ())
            for i in range(2)
        ]
        return list(prompts[:10]) + bare

    @staticmethod
    def _spec(name):
        if name == "steady":
            return dataclasses.replace(
                MODEL_ZOO["sdxl"], alignment_jitter=0.0
            )
        return get_model(name)

    @staticmethod
    def _memo_state():
        from repro.diffusion import model as model_mod

        return {
            key: value.tobytes()
            for key, value in model_mod._CONTENT_CACHE.items()
        }

    def _run(self, space, spec, batch, seed, warm, cache_embeddings, batched):
        from repro.core.serving import clear_hotpath_memos
        from repro.diffusion.model import parked_targets
        from repro.embedding.image_encoder import ClipLikeImageEncoder

        clear_hotpath_memos(space)
        parked, content_prefix = warm
        twin = DiffusionModelSim(spec, space)
        # Same spec and seed: the twin names these images exactly as the
        # measured sim will, so their contents are memo hits.
        for prompt in batch[:content_prefix]:
            twin.generate(prompt, seed=seed)
        sim = DiffusionModelSim(spec, space)
        encoder = ClipLikeImageEncoder(space, cache_embeddings)
        with parked_targets([twin], parked, seed):
            if batched:
                images = [
                    r.image for r in sim.generate_batch(batch, seed, 2.5)
                ]
                embedded = list(encoder.encode_batch(images))
            else:
                images, embedded = [], []
                for prompt in batch:
                    images.append(sim.generate(prompt, seed, 2.5).image)
                    embedded.append(encoder.encode(images[-1]))
        return (
            [
                (
                    image.image_id,
                    image.prompt_id,
                    image.content.tobytes(),
                    image.created_at,
                    image.steps_run,
                )
                for image in images
            ],
            [embedding.tobytes() for embedding in embedded],
            self._memo_state(),
            next(sim._counter),
        )

    @given(
        rows=st.lists(st.integers(0, 11), min_size=1, max_size=12),
        spec_name=st.sampled_from(["sd3.5-large", "sdxl", "steady"]),
        quiet=st.booleans(),
        cache_embeddings=st.booleans(),
        seed=st.sampled_from(["a", "b"]),
        parked_rows=st.sets(st.integers(0, 11)),
        content_prefix=st.integers(0, 12),
    )
    @example(  # repeats of a later prompt, all memos cold
        rows=[0, 1, 11, 1, 11, 0],
        spec_name="sd3.5-large",
        quiet=False,
        cache_embeddings=True,
        seed="a",
        parked_rows=set(),
        content_prefix=0,
    )
    @example(  # every path at once: partly warm memos, no jitter
        rows=[2, 3, 10, 3, 4, 2, 5],
        spec_name="steady",
        quiet=True,
        cache_embeddings=False,
        seed="b",
        parked_rows={2, 3, 5},
        content_prefix=2,
    )
    @settings(deadline=None)
    def test_batch_equals_sequential(
        self,
        space,
        quiet_space,
        pool,
        rows,
        spec_name,
        quiet,
        cache_embeddings,
        seed,
        parked_rows,
        content_prefix,
    ):
        run_space = quiet_space if quiet else space
        spec = self._spec(spec_name)
        batch = [pool[i] for i in rows]
        warm = ([pool[i] for i in sorted(parked_rows)], content_prefix)
        args = (run_space, spec, batch, seed, warm, cache_embeddings)
        sequential = self._run(*args, batched=False)
        batched = self._run(*args, batched=True)
        assert batched == sequential

    def test_generate_is_the_one_prompt_batch(self, space, prompts):
        from repro.diffusion import model as model_mod

        model_mod.clear_model_memos()
        one = DiffusionModelSim(get_model("sdxl"), space)
        many = DiffusionModelSim(get_model("sdxl"), space)
        first = one.generate(prompts[3], seed="one").image
        [batched] = many.generate_batch([prompts[3]], seed="one")
        assert batched.image.content is first.content
        assert batched.image == first

    def test_target_batch_rows_equal_target_content(self, space, pool):
        """The target step of a batch, repeats included, row for row."""
        from repro.diffusion import model as model_mod

        batch = [pool[i] for i in (0, 4, 11, 4, 7)]
        model_mod.clear_model_memos()
        sim = DiffusionModelSim(get_model("sd3.5-large"), space)
        stacked = sim.target_batch(batch, "t")
        model_mod.clear_model_memos()
        for row, prompt in zip(stacked, batch):
            alone = sim.target_content(prompt, "t")
            assert row.tobytes() == alone.tobytes()
        assert next(sim._counter) == 0

    def test_empty_batch(self, space):
        sim = DiffusionModelSim(get_model("sdxl"), space)
        assert sim.generate_batch([], seed="none") == []
        assert next(sim._counter) == 0

    def test_chunks_cover_the_prompts_in_order(self, space, prompts):
        from repro.diffusion import model as model_mod

        model_mod.clear_model_memos()
        n = model_mod.WARM_CHUNK + 7
        chunked = DiffusionModelSim(get_model("sdxl"), space)
        whole = DiffusionModelSim(get_model("sdxl"), space)
        seen = []
        for chunk, images in chunked.generate_chunks(prompts[:n], "c"):
            assert len(chunk) == len(images) <= model_mod.WARM_CHUNK
            seen.extend(images)
        assert [image.image_id for image in seen] == [
            r.image.image_id for r in whole.generate_batch(prompts[:n], "c")
        ]
        assert [p.prompt_id for p in prompts[:n]] == [
            image.prompt_id for image in seen
        ]
