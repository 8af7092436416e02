"""Tests for the semantic space and modality geometry."""

import numpy as np
import pytest

from repro._rng import normalize, rng_for, unit_vector
from repro.embedding.space import (
    SpaceConfig,
    cosine,
    cosine_matrix,
)


class TestSpaceConfig:
    def test_embed_dim_adds_anchor_axes(self):
        cfg = SpaceConfig(semantic_dim=48)
        assert cfg.embed_dim == 50

    def test_floor_gain_relationship(self):
        cfg = SpaceConfig()
        a2 = cfg.modality_scale**2
        assert np.isclose(cfg.text_image_floor, cfg.modality_gap / (1 + a2))
        assert np.isclose(cfg.text_image_gain, a2 / (1 + a2))

    def test_text_text_floor_above_text_image_floor(self):
        cfg = SpaceConfig()
        assert cfg.text_text_floor > cfg.text_image_floor

    def test_invalid_semantic_dim(self):
        with pytest.raises(ValueError):
            SpaceConfig(semantic_dim=1)

    def test_invalid_modality_gap(self):
        with pytest.raises(ValueError):
            SpaceConfig(modality_gap=1.5)

    def test_invalid_modality_scale(self):
        with pytest.raises(ValueError):
            SpaceConfig(modality_scale=0.0)


class TestSemanticSpace:
    def test_topic_vectors_unit_norm(self, space):
        assert np.isclose(np.linalg.norm(space.topic_vector(3)), 1.0)

    def test_topic_vectors_cached(self, space):
        assert space.topic_vector(5) is space.topic_vector(5)

    def test_distinct_topics_distinct(self, space):
        assert not np.allclose(space.topic_vector(0), space.topic_vector(1))

    def test_drift_zero_magnitude_is_copy(self, space):
        base = space.topic_vector(0)
        drifted = space.drift(base, 0.0, rng_for(*space.drift_keys("key")))
        assert np.allclose(drifted, base)
        assert drifted is not base

    def test_drift_reduces_similarity_with_magnitude(self, space):
        base = space.topic_vector(0)
        near = space.drift(base, 0.1, rng_for(*space.drift_keys("k")))
        far = space.drift(base, 0.8, rng_for(*space.drift_keys("k")))
        assert cosine(base, near) > cosine(base, far)

    def test_drift_negative_magnitude_rejected(self, space):
        with pytest.raises(ValueError):
            space.drift(space.topic_vector(0), -0.1, rng_for("k"))

    def test_drift_matches_keyed_oracle(self, space):
        base = space.topic_vector(4)
        keys = ("ns", "prompt", "s9", 3)
        rng = rng_for(space.config.seed, "drift", *keys)
        noise = unit_vector(rng, space.config.semantic_dim)
        expected = normalize(base + 0.3 * noise)
        assert space.drift_keys(*keys) == (space.config.seed, "drift", *keys)
        drifted = space.drift(base, 0.3, rng_for(*space.drift_keys(*keys)))
        assert drifted.tobytes() == expected.tobytes()

    def test_anchor_geometry(self, space):
        t_anchor = space.text_anchor()
        i_anchor = space.image_anchor()
        assert np.isclose(np.linalg.norm(t_anchor), 1.0)
        assert np.isclose(np.linalg.norm(i_anchor), 1.0)
        assert np.isclose(
            float(t_anchor @ i_anchor), space.config.modality_gap
        )

    def test_pad_project_roundtrip(self, space):
        sem = space.topic_vector(2)
        padded = space.pad(sem)
        assert padded.shape == (space.config.embed_dim,)
        assert np.allclose(space.project(padded), sem)

    def test_pad_rejects_wrong_shape(self, space):
        with pytest.raises(ValueError):
            space.pad(np.zeros(space.config.semantic_dim + 1))

    def test_expected_cosine_formulas(self, space):
        cfg = space.config
        assert np.isclose(
            space.expected_text_image_cosine(0.0), cfg.text_image_floor
        )
        assert np.isclose(
            space.expected_text_image_cosine(1.0),
            cfg.text_image_floor + cfg.text_image_gain,
        )
        assert space.expected_text_text_cosine(0.0) > 0.7


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.isclose(cosine(v, v), 1.0)

    def test_orthogonal_vectors(self):
        assert np.isclose(
            cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])), 0.0
        )

    def test_zero_vector_returns_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariant(self):
        a = np.array([1.0, 2.0])
        assert np.isclose(cosine(a, 5 * a), 1.0)


class TestCosineMatrix:
    def test_shape(self):
        q = np.random.default_rng(0).standard_normal((3, 8))
        k = np.random.default_rng(1).standard_normal((5, 8))
        assert cosine_matrix(q, k).shape == (3, 5)

    def test_matches_scalar_cosine(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((2, 6))
        k = rng.standard_normal((4, 6))
        mat = cosine_matrix(q, k)
        for i in range(2):
            for j in range(4):
                assert np.isclose(mat[i, j], cosine(q[i], k[j]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.zeros(3), np.zeros((2, 3)))

    def test_zero_rows_yield_zero(self):
        q = np.zeros((1, 4))
        k = np.ones((1, 4))
        assert np.allclose(cosine_matrix(q, k), 0.0)
