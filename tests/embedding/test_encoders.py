"""Tests for the CLIP-like text and image encoders."""

import numpy as np
import pytest

from repro.embedding.image_encoder import ClipLikeImageEncoder
from repro.embedding.space import cosine
from repro.embedding.text_encoder import ClipLikeTextEncoder, prompt_mixture


@pytest.fixture(scope="module")
def text_encoder(space):
    return ClipLikeTextEncoder(space)


@pytest.fixture(scope="module")
def image_encoder(space):
    return ClipLikeImageEncoder(space)


class TestTextEncoder:
    def test_unit_norm(self, text_encoder, prompts):
        emb = text_encoder.encode(prompts[0])
        assert np.isclose(np.linalg.norm(emb), 1.0)

    def test_embed_dim(self, text_encoder, space, prompts):
        assert text_encoder.encode(prompts[0]).shape == (
            space.config.embed_dim,
        )

    def test_cache_returns_identical_object(self, text_encoder, prompts):
        a = text_encoder.encode(prompts[0])
        b = text_encoder.encode(prompts[0])
        assert a is b

    def test_cache_disabled(self, space, prompts):
        enc = ClipLikeTextEncoder(space, cache_embeddings=False)
        a = enc.encode(prompts[0])
        b = enc.encode(prompts[0])
        assert a is not b
        assert np.allclose(a, b)

    def test_clear_cache(self, space, prompts):
        enc = ClipLikeTextEncoder(space)
        a = enc.encode(prompts[0])
        enc.clear_cache()
        assert enc.encode(prompts[0]) is not a

    def test_batch_matches_single(self, text_encoder, prompts):
        batch = text_encoder.encode_batch(prompts[:4])
        assert batch.shape == (4, text_encoder.embed_dim)
        for i in range(4):
            assert np.allclose(batch[i], text_encoder.encode(prompts[i]))

    def test_empty_batch(self, text_encoder):
        assert text_encoder.encode_batch([]).shape == (
            0,
            text_encoder.embed_dim,
        )

    def test_same_session_prompts_similar(self, text_encoder, ddb_trace):
        by_session = {}
        for r in ddb_trace:
            by_session.setdefault(r.prompt.session_id, []).append(r.prompt)
        sessions = [p for p in by_session.values() if len(p) >= 2]
        p1, p2 = sessions[0][0], sessions[0][1]
        same = cosine(text_encoder.encode(p1), text_encoder.encode(p2))
        other = sessions[10][0]
        cross = cosine(text_encoder.encode(p1), text_encoder.encode(other))
        assert same > cross

    def test_text_text_floor_dominates(self, text_encoder, prompts):
        # The shared text anchor keeps even unrelated prompts correlated.
        sim = cosine(
            text_encoder.encode(prompts[0]),
            text_encoder.encode(prompts[50]),
        )
        assert sim > 0.5

    def test_mixture_unit_norm(self, space, prompts):
        mix = prompt_mixture(space, prompts[0])
        assert np.isclose(np.linalg.norm(mix), 1.0)
        assert mix.shape == (space.config.semantic_dim,)


class TestImageEncoder:
    def test_unit_norm(self, image_encoder, sample_images):
        emb = image_encoder.encode(sample_images[0])
        assert np.isclose(np.linalg.norm(emb), 1.0)

    def test_cache(self, image_encoder, sample_images):
        a = image_encoder.encode(sample_images[0])
        assert image_encoder.encode(sample_images[0]) is a

    def test_batch_matches_single(self, image_encoder, sample_images):
        batch = image_encoder.encode_batch(sample_images[:3])
        for i in range(3):
            assert np.allclose(
                batch[i], image_encoder.encode(sample_images[i])
            )

    def test_wrong_content_shape_rejected(self, space):
        enc = ClipLikeImageEncoder(space, cache_embeddings=False)

        class Bad:
            image_id = "bad"
            content = np.zeros(space.config.semantic_dim + 3)

        with pytest.raises(ValueError):
            enc.encode(Bad())

    def test_encoder_noise_perturbs_identical_content(
        self, space, sample_images
    ):
        enc = ClipLikeImageEncoder(space, cache_embeddings=False)

        class Clone:
            def __init__(self, image_id, content):
                self.image_id = image_id
                self.content = content

        img = sample_images[0]
        a = enc.encode(Clone("id-a", img.content))
        b = enc.encode(Clone("id-b", img.content))
        assert not np.allclose(a, b)
        assert cosine(a, b) > 0.99


class _Image:
    def __init__(self, image_id, content):
        self.image_id = image_id
        self.content = content


def _frozen(content):
    content = content.copy()
    content.flags.writeable = False
    return content


class TestImageEmbeddingMemo:
    """The process-wide image memo keys by id plus a variant per
    bitwise-distinct content; each fresh encoding adds one key."""

    @staticmethod
    def _keys(image_id):
        from repro.embedding.image_encoder import _EMBED_MEMO

        return sorted(k for k in _EMBED_MEMO if k[1] == image_id)

    @pytest.mark.parametrize("pair", ["sign-of-zero", "different"])
    def test_two_contents_two_variants_each_cold_exact(
        self, space, sample_images, pair
    ):
        plus = sample_images[0].content.copy()
        plus[0] = 0.0
        minus = plus.copy()
        minus[0] = -0.0
        contents = {
            "sign-of-zero": (plus, minus),
            "different": (sample_images[0].content, sample_images[1].content),
        }[pair]
        images = [_Image("memo-variant", _frozen(c)) for c in contents]
        enc = ClipLikeImageEncoder(space)
        enc.clear_cache()
        first = [enc.encode(img) for img in images]
        assert [k[-1] for k in self._keys("memo-variant")] == [0, 1]
        cold = ClipLikeImageEncoder(space, cache_embeddings=False)
        for img, emb in zip(reversed(images), reversed(first)):
            assert enc.encode(img) is emb
            assert emb.tobytes() == cold.encode(img).tobytes()

    def test_mutated_writeable_content_does_not_poison(
        self, space, sample_images
    ):
        enc = ClipLikeImageEncoder(space)
        enc.clear_cache()
        cold = ClipLikeImageEncoder(space, cache_embeddings=False)
        scratch = sample_images[0].content.copy()
        image = _Image("memo-mutated", scratch)
        before = enc.encode(image)
        scratch[:] = sample_images[1].content
        after = enc.encode(image)
        assert after.tobytes() == cold.encode(image).tobytes()
        assert after.tobytes() != before.tobytes()

    def test_one_key_per_fresh_encoding(self, space, sample_images):
        from repro.embedding.image_encoder import _EMBED_MEMO

        enc = ClipLikeImageEncoder(space)
        enc.clear_cache()
        image = sample_images[0]
        start = len(_EMBED_MEMO)
        enc.encode(image)
        assert len(_EMBED_MEMO) == start + 1
        enc.encode(image)
        ClipLikeImageEncoder(space).encode(image)
        assert len(_EMBED_MEMO) == start + 1
        enc.encode(_Image(image.image_id, _frozen(-image.content)))
        assert len(_EMBED_MEMO) == start + 2

    def test_uncached_encoder_bypasses_memo(self, space, sample_images):
        from repro.embedding.image_encoder import _EMBED_MEMO

        ClipLikeImageEncoder(space).clear_cache()
        start = len(_EMBED_MEMO)
        enc = ClipLikeImageEncoder(space, cache_embeddings=False)
        a = enc.encode(sample_images[0])
        assert enc.encode(sample_images[0]) is not a
        assert len(_EMBED_MEMO) == start


class TestModalityGap:
    def test_text_image_similarity_in_calibrated_band(
        self, space, text_encoder, image_encoder, large_model, prompts
    ):
        sims = []
        for p in prompts[:50]:
            img = large_model.generate(p, seed="gap-test").image
            sims.append(
                cosine(text_encoder.encode(p), image_encoder.encode(img))
            )
        mean = float(np.mean(sims))
        # Tables 2-3 calibrate vanilla CLIP ~0.285.
        assert 0.26 < mean < 0.31

    def test_unrelated_image_near_floor(
        self, space, text_encoder, image_encoder, large_model, prompts
    ):
        img = large_model.generate(prompts[0], seed="gap-test").image
        sim = cosine(
            text_encoder.encode(prompts[99]), image_encoder.encode(img)
        )
        assert sim < 0.24


class TestEncodeBatchVectorized:
    """The vectorized uncached-prompt path must be bit-identical to
    sequential encode() calls and preserve cache semantics."""

    def test_batch_bit_identical_to_sequential(self, space, prompts):
        seq = ClipLikeTextEncoder(space)
        bat = ClipLikeTextEncoder(space)
        seq.clear_cache()  # also drops the process-wide memo
        expected = np.stack([seq.encode(p) for p in prompts[:16]])
        bat.clear_cache()
        got = bat.encode_batch(prompts[:16])
        assert (got == expected).all()

    def test_duplicates_share_one_embedding(self, space, prompts):
        enc = ClipLikeTextEncoder(space)
        enc.clear_cache()
        batch = [prompts[0], prompts[1], prompts[0], prompts[0]]
        out = enc.encode_batch(batch)
        assert (out[0] == out[2]).all() and (out[0] == out[3]).all()

    def test_batch_populates_cache_for_singleton_encode(
        self, space, prompts
    ):
        enc = ClipLikeTextEncoder(space)
        enc.clear_cache()
        out = enc.encode_batch(prompts[:3])
        for i in range(3):
            assert (enc.encode(prompts[i]) == out[i]).all()

    def test_mixed_cached_and_fresh_rows(self, space, prompts):
        enc = ClipLikeTextEncoder(space)
        enc.clear_cache()
        first = enc.encode(prompts[0])
        out = enc.encode_batch(prompts[:4])
        assert (out[0] == first).all()
        reference = ClipLikeTextEncoder(space, cache_embeddings=False)
        for i in range(1, 4):
            assert (out[i] == reference.encode(prompts[i])).all()

    def test_uncached_encoder_batch_matches(self, space, prompts):
        enc = ClipLikeTextEncoder(space, cache_embeddings=False)
        out = enc.encode_batch(prompts[:5])
        for i in range(5):
            assert (out[i] == enc.encode(prompts[i])).all()

    def test_cross_instance_memo_shares_embeddings(self, space, prompts):
        a = ClipLikeTextEncoder(space)
        a.clear_cache()
        emb = a.encode(prompts[0])
        b = ClipLikeTextEncoder(space)
        assert b.encode(prompts[0]) is emb


class TestRetrievalBatchPaths:
    def test_t2t_query_embeddings_match_singletons(self, space, prompts):
        from repro.core.retrieval import TextToTextRetrieval

        seq = TextToTextRetrieval(space)
        bat = TextToTextRetrieval(space)
        expected = np.stack(
            [seq.query_embedding(p) for p in prompts[:8]]
        )
        got = bat.query_embeddings(prompts[:8])
        assert (got == expected).all()

    def test_t2i_query_embeddings_match_singletons(self, space, prompts):
        from repro.core.retrieval import TextToImageRetrieval

        seq = TextToImageRetrieval(space)
        bat = TextToImageRetrieval(space)
        expected = np.stack(
            [seq.query_embedding(p) for p in prompts[:8]]
        )
        got = bat.query_embeddings(prompts[:8])
        assert (got == expected).all()
