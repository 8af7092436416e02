"""Tests for prompt construction and session structure."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import _BULK_SEEDS, normalize, rng_for, rngs_for, unit_vector
from repro.embedding.space import SemanticSpace, cosine
from repro.embedding.vocab import Vocabulary
from repro.workloads.prompts import (
    Prompt,
    PromptFactory,
    SessionSpec,
    zipf_topic_sampler,
)


@dataclass
class ReferencePromptFactory:
    """The per-key prompt factory: one ``rng_for`` generator per key.

    The oracle for :class:`PromptFactory`, which seeds each session's
    streams in one batch; every prompt must come out bit-identical.
    """

    space: SemanticSpace
    vocab: Vocabulary
    namespace: str = "trace"
    session_drift: float = 0.35
    prompt_drift: float = 0.12

    def drift(self, base, magnitude, *keys):
        if magnitude < 0:
            raise ValueError("drift magnitude must be non-negative")
        if magnitude == 0.0:
            return np.array(base, copy=True)
        rng = rng_for(self.space.config.seed, "drift", *keys)
        noise = unit_vector(rng, self.space.config.semantic_dim)
        return normalize(base + magnitude * noise)

    def topic_tokens(self, topic_id):
        rng = rng_for(self.namespace, "topic-tokens", topic_id)
        return {
            "subject": self.vocab.sample("subject", rng),
            "styles": [self.vocab.sample("style", rng) for _ in range(2)],
            "settings": [self.vocab.sample("setting", rng) for _ in range(2)],
        }

    def session_semantics(self, topic_id, session_key):
        base = self.space.topic_vector(topic_id)
        return self.drift(
            base, self.session_drift, self.namespace, "session", session_key
        )

    def make_prompt(
        self, topic_id, session_key, iteration, user_id="anon",
        session_semantics=None,
    ):
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        topic = self.topic_tokens(topic_id)
        session_rng = rng_for(self.namespace, "session-tokens", session_key)
        style = topic["styles"][int(session_rng.integers(2))]
        setting = topic["settings"][int(session_rng.integers(2))]
        prompt_rng = rng_for(
            self.namespace, "prompt-tokens", session_key, iteration
        )
        modifiers = [
            self.vocab.sample("modifier", prompt_rng) for _ in range(2)
        ]
        tokens = [topic["subject"], style, setting, *modifiers]
        if prompt_rng.random() < 0.5:
            tokens.append(self.vocab.sample("quality", prompt_rng))
        if session_semantics is None:
            session_semantics = self.session_semantics(topic_id, session_key)
        semantics = self.drift(
            session_semantics,
            self.prompt_drift,
            self.namespace,
            "prompt",
            session_key,
            iteration,
        )
        return Prompt(
            prompt_id=f"{self.namespace}/{session_key}/{iteration}",
            text=" ".join(tokens),
            tokens=tuple(tokens),
            semantics=semantics,
            topic_id=topic_id,
            session_id=session_key,
            user_id=user_id,
        )

    def make_session(self, topic_id, session_key, length, user_id="anon"):
        if length < 1:
            raise ValueError("session length must be >= 1")
        base = self.session_semantics(topic_id, session_key)
        return [
            self.make_prompt(
                topic_id, session_key, i, user_id=user_id,
                session_semantics=base,
            )
            for i in range(length)
        ]


def _fields(prompt):
    return (
        prompt.prompt_id,
        prompt.text,
        prompt.tokens,
        prompt.semantics.tobytes(),
        prompt.topic_id,
        prompt.session_id,
        prompt.user_id,
    )


@pytest.fixture(scope="module")
def factory(space, vocab):
    return PromptFactory(space=space, vocab=vocab, namespace="test-ns")


class TestPrompt:
    def test_rejects_empty_id(self, space):
        with pytest.raises(ValueError):
            Prompt(
                prompt_id="",
                text="x",
                tokens=("x",),
                semantics=np.zeros(space.config.semantic_dim),
                topic_id=0,
                session_id="s",
                user_id="u",
            )

    def test_rejects_matrix_semantics(self):
        with pytest.raises(ValueError):
            Prompt(
                prompt_id="p",
                text="x",
                tokens=("x",),
                semantics=np.zeros((2, 2)),
                topic_id=0,
                session_id="s",
                user_id="u",
            )


class TestPromptFactory:
    def test_dimension_mismatch_rejected(self, space):
        with pytest.raises(ValueError):
            PromptFactory(
                space=space,
                vocab=Vocabulary(dim=space.config.semantic_dim + 1),
            )

    def test_deterministic(self, factory):
        a = factory.make_prompt(3, "s1", 0)
        b = factory.make_prompt(3, "s1", 0)
        assert a.text == b.text
        assert np.allclose(a.semantics, b.semantics)

    def test_semantics_unit_norm(self, factory):
        prompt = factory.make_prompt(1, "s1", 0)
        assert np.isclose(np.linalg.norm(prompt.semantics), 1.0)

    def test_same_session_shares_core_tokens(self, factory):
        session = factory.make_session(2, "sX", 4)
        subjects = {p.tokens[0] for p in session}
        styles = {p.tokens[1] for p in session}
        assert len(subjects) == 1
        assert len(styles) == 1

    def test_iterations_vary_modifiers(self, factory):
        session = factory.make_session(2, "sY", 6)
        modifier_sets = {tuple(p.tokens[3:5]) for p in session}
        assert len(modifier_sets) > 1

    def test_within_session_semantics_tight(self, factory):
        session = factory.make_session(5, "sZ", 5)
        sims = [
            cosine(session[0].semantics, p.semantics) for p in session[1:]
        ]
        assert min(sims) > 0.9

    def test_cross_topic_semantics_loose(self, factory):
        a = factory.make_prompt(0, "sa", 0)
        b = factory.make_prompt(37, "sb", 0)
        assert cosine(a.semantics, b.semantics) < 0.5

    def test_session_tighter_than_topic(self, factory):
        base = factory.make_prompt(7, "s-one", 0)
        same_session = factory.make_prompt(7, "s-one", 1)
        same_topic = factory.make_prompt(7, "s-two", 0)
        assert cosine(base.semantics, same_session.semantics) > cosine(
            base.semantics, same_topic.semantics
        )

    def test_invalid_session_length(self, factory):
        with pytest.raises(ValueError):
            factory.make_session(0, "s", 0)

    def test_negative_iteration(self, factory):
        with pytest.raises(ValueError):
            factory.make_prompt(0, "s", -1)

    def test_prompt_id_unique_per_iteration(self, factory):
        ids = {p.prompt_id for p in factory.make_session(0, "s-ids", 5)}
        assert len(ids) == 5

    def test_text_joins_tokens(self, factory):
        prompt = factory.make_prompt(0, "s-text", 0)
        assert prompt.text == " ".join(prompt.tokens)


class TestReferenceOracle:
    """The batched factory against the per-key oracle, bit for bit."""

    DRIFTS = st.one_of(
        st.just(0.0), st.floats(0.0, 1.5, allow_nan=False)
    )

    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(
        topic_id=st.integers(0, 2_000),
        session_key=st.text(min_size=1, max_size=12),
        length=st.integers(1, 12),
        session_drift=DRIFTS,
        prompt_drift=DRIFTS,
        namespace=st.sampled_from(["trace", "mjhq-v1", "ns\u00e9"]),
    )
    def test_matches_per_key_factory(
        self, space, vocab, topic_id, session_key, length, session_drift,
        prompt_drift, namespace,
    ):
        kw = dict(
            space=space,
            vocab=vocab,
            namespace=namespace,
            session_drift=session_drift,
            prompt_drift=prompt_drift,
        )
        new, ref = PromptFactory(**kw), ReferencePromptFactory(**kw)
        session = new.make_session(topic_id, session_key, length, "u1")
        assert [_fields(p) for p in session] == [
            _fields(p)
            for p in ref.make_session(topic_id, session_key, length, "u1")
        ]
        last = length - 1
        assert _fields(new.make_prompt(topic_id, session_key, last)) == (
            _fields(ref.make_prompt(topic_id, session_key, last))
        )
        base = session[0].semantics
        assert _fields(
            new.make_prompt(topic_id, session_key, length, "u2", base)
        ) == _fields(
            ref.make_prompt(topic_id, session_key, length, "u2", base)
        )
        assert new.topic_tokens(topic_id) == ref.topic_tokens(topic_id)

    @pytest.mark.parametrize("which", ["session_drift", "prompt_drift"])
    def test_negative_drift_rejected(self, space, vocab, which):
        factory = PromptFactory(space=space, vocab=vocab, **{which: -0.1})
        with pytest.raises(ValueError):
            factory.make_session(3, "s-neg", 2)
        with pytest.raises(ValueError):
            factory.make_prompt(3, "s-neg", 0)

    def test_topic_tokens_memoized(self, factory):
        assert factory.topic_tokens(11) is factory.topic_tokens(11)


class TestMakeIterations:
    """A session's kept iterations, built alone, equal the same items
    of the whole session."""

    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(
        topic_id=st.integers(0, 400),
        session_key=st.one_of(
            st.text(min_size=1, max_size=8), st.integers()
        ),
        length=st.integers(1, 10),
        kept=st.sets(st.integers(0, 9)),
    )
    @example(topic_id=7, session_key="s-sub", length=6, kept={0, 3, 5})
    def test_matches_whole_session(
        self, factory, topic_id, session_key, length, kept
    ):
        iterations = sorted(i for i in kept if i < length)
        session = factory.make_session(topic_id, session_key, length, "u3")
        subset = factory.make_iterations(
            topic_id, session_key, iterations, "u3"
        )
        assert [_fields(p) for p in subset] == [
            _fields(session[i]) for i in iterations
        ]


def per_session_iterations(
    factory, topic_id, session_key, iterations, user_id="anon",
    session_semantics=None,
):
    """One session's iterations, seeded by their own ``rngs_for`` call.

    The per-session loop trace synthesis ran before every kept session
    was seeded in one batch: the oracle for
    :meth:`PromptFactory.make_sessions`.
    """
    space = factory.space
    session_tokens, session_drift, prompt_tokens, prompt_drift = (
        factory._seeds
    )
    seeds = [session_tokens(session_key)]
    if session_semantics is None:
        seeds.append(session_drift(session_key))
    for iteration in iterations:
        seeds.append(prompt_tokens(session_key, iteration))
        seeds.append(prompt_drift(session_key, iteration))
    topic = factory.topic_tokens(topic_id)
    streams = rngs_for(seeds)
    rng = next(streams)
    core = (
        topic["subject"],
        topic["styles"][int(rng.integers(2))],
        topic["settings"][int(rng.integers(2))],
    )
    if session_semantics is None:
        session_semantics = space.drift(
            space.topic_vector(topic_id), factory.session_drift, next(streams)
        )
    prompts = []
    for iteration in iterations:
        rng = next(streams)
        sample = factory.vocab.sample
        tokens = [*core, sample("modifier", rng), sample("modifier", rng)]
        if rng.random() < 0.5:
            tokens.append(sample("quality", rng))
        semantics = space.drift(
            session_semantics, factory.prompt_drift, next(streams)
        )
        prompts.append(
            Prompt(
                prompt_id=f"{factory.namespace}/{session_key}/{iteration}",
                text=" ".join(tokens),
                tokens=tuple(tokens),
                semantics=semantics,
                topic_id=topic_id,
                session_id=session_key,
                user_id=user_id,
            )
        )
    return prompts


_SESSION_SPECS = st.lists(
    st.tuples(
        st.integers(0, 400),
        st.sets(st.integers(0, 11)).map(sorted),
        st.booleans(),
    ),
    max_size=24,
)


class TestMakeSessions:
    """Many sessions built in one call equal each session built alone,
    by the per-session oracle and by ``make_iterations``."""

    @staticmethod
    def _specs(drawn, base):
        return [
            SessionSpec(
                topic_id,
                f"ms{i}",
                iterations,
                user_id=f"u{i % 3}",
                session_semantics=base if fixed else None,
            )
            for i, (topic_id, iterations, fixed) in enumerate(drawn)
        ]

    # Example budget from the hypothesis profile (tests/conftest.py).
    @settings(deadline=None)
    @given(drawn=_SESSION_SPECS, namespace=st.sampled_from(["ms", "ms\u00e9"]))
    def test_matches_per_session_builds(self, space, vocab, drawn, namespace):
        factory = PromptFactory(space=space, vocab=vocab, namespace=namespace)
        base = factory.make_prompt(0, "ms-base", 0).semantics
        specs = self._specs(drawn, base)
        built = factory.make_sessions(specs)
        assert len(built) == len(specs)
        for spec, prompts in zip(specs, built):
            oracle = per_session_iterations(factory, *spec)
            assert [_fields(p) for p in prompts] == [
                _fields(p) for p in oracle
            ]
            assert [_fields(p) for p in prompts] == [
                _fields(p) for p in factory.make_iterations(*spec)
            ]

    def test_bulk_batch_matches_per_session_builds(self, factory):
        # Enough streams that the one call seeds them in bulk.
        specs = [
            SessionSpec(i % 40, f"bulk{i}", range(i % 7), f"u{i}")
            for i in range(60)
        ]
        n_streams = sum(2 + 2 * len(spec.iterations) for spec in specs)
        assert n_streams > 4 * _BULK_SEEDS
        built = factory.make_sessions(specs)
        assert [[_fields(p) for p in prompts] for prompts in built] == [
            [_fields(p) for p in per_session_iterations(factory, *spec)]
            for spec in specs
        ]

    def test_empty_and_negative(self, factory):
        assert factory.make_sessions([]) == []
        assert factory.make_sessions([SessionSpec(1, "none", ())]) == [[]]
        with pytest.raises(ValueError):
            factory.make_sessions(
                [SessionSpec(1, "ok", (0,)), SessionSpec(1, "bad", (-1,))]
            )


class TestZipfSampler:
    def test_head_heavier_than_tail(self):
        sample = zipf_topic_sampler(100, 1.2, rng_for("zipf"))
        draws = [sample() for _ in range(3000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 5 * max(1, tail)

    def test_all_draws_in_range(self):
        sample = zipf_topic_sampler(10, 1.0, rng_for("zipf2"))
        assert all(0 <= sample() < 10 for _ in range(200))

    def test_invalid_topic_count(self):
        with pytest.raises(ValueError):
            zipf_topic_sampler(0, 1.0, rng_for("z"))


class TestZipfOracle:
    """The sampler draws exactly what ``rng.choice(n, p=weights)`` does."""

    @given(
        n_topics=st.integers(1, 400),
        exponent=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32),
    )
    def test_matches_generator_choice(self, n_topics, exponent, seed):
        sample = zipf_topic_sampler(n_topics, exponent, rng_for("zo", seed))
        oracle = rng_for("zo", seed)
        weights = np.arange(1, n_topics + 1, dtype=float) ** (-exponent)
        weights /= weights.sum()
        got = [sample() for _ in range(50)]
        want = [int(oracle.choice(n_topics, p=weights)) for _ in range(50)]
        assert got == want
