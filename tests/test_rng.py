"""Tests for the deterministic RNG utilities."""

import enum
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import _rng
from repro._rng import (
    DirectionCache,
    SeedPrefix,
    _FastStream,
    _pcg64_raw_state,
    normalize,
    normalize_rows,
    rng_for,
    rngs_for,
    seed_for,
    unit_vector,
)


class _Level(enum.IntEnum):
    HIGH = 2


def _per_key_seed(*keys):
    """``seed_for`` material built key by key, as the general path does."""
    import hashlib

    parts = []
    for key in keys:
        if isinstance(key, bytes):
            parts.append(key)
        elif isinstance(key, float):
            parts.append(repr(key).encode("utf-8"))
        else:
            parts.append(str(key).encode("utf-8"))
        parts.append(b"\x1f")
    raw = hashlib.blake2b(b"".join(parts), digest_size=8).digest()
    return int.from_bytes(raw, "little")


class TestSeedFor:
    def test_deterministic_across_calls(self):
        assert seed_for("a", 1, 2.5) == seed_for("a", 1, 2.5)

    def test_different_keys_differ(self):
        assert seed_for("a") != seed_for("b")

    def test_key_order_matters(self):
        assert seed_for("a", "b") != seed_for("b", "a")

    def test_int_vs_float_distinguished(self):
        assert seed_for(1) != seed_for(1.0)

    def test_concatenation_ambiguity_resolved(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert seed_for("ab", "c") != seed_for("a", "bc")

    def test_bytes_keys_supported(self):
        assert seed_for(b"raw") == seed_for(b"raw")

    def test_returns_64_bit_value(self):
        value = seed_for("anything")
        assert 0 <= value < 2**64

    def test_all_str_keys_hash_separated_material(self):
        import hashlib

        def digest(material):
            raw = hashlib.blake2b(material, digest_size=8).digest()
            return int.from_bytes(raw, "little")

        assert seed_for("a", "bé") == digest(b"a\x1fb\xc3\xa9\x1f")
        assert seed_for("a", 1) == digest(b"a\x1f1\x1f")
        assert seed_for() == digest(b"")

    def test_str_subclass_keys_hash_their_str(self):
        import enum

        class Mode(str, enum.Enum):
            FAST = "fast"

        # The per-key path hashes str(key), not the raw str payload.
        assert seed_for(Mode.FAST) == seed_for(str(Mode.FAST))

    @pytest.mark.parametrize(
        "keys",
        [
            ("a", 1),
            (3, "b", -7),
            (-1,),
            (0, 0),
            (2**64 + 5, "big"),
            (-(2**70), "neg-big", 12),
            ("x", True),
            (False, 1),
            # str() of an IntEnum differs across Python versions;
            # whatever it is, the material is the per-key path's.
            ("lvl", _Level.HIGH),
            ("x", 1.0, 2),
            (b"raw", 3),
            (),
        ],
    )
    def test_str_int_keys_hash_per_key_material(self, keys):
        assert seed_for(*keys) == _per_key_seed(*keys)


class _Tag(str):
    """A ``str`` subclass: ``seed_for`` hashes it on its per-key path."""


#: Keys ``seed_for`` joins on its fast path: exact ``str`` and ``int``,
#: with the separator, non-ASCII text and ints beyond 64 bits.
_EXACT_KEYS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "\x1f", "a\x1fb", "\u00e9\u6f22\U0001f600", "1"]),
    st.integers(),
    st.integers(-(2**130), 2**130),
)
#: Keys that take ``seed_for``'s per-key path (and the prefix fallback).
_OTHER_KEYS = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.binary(max_size=8),
    st.sampled_from(list(_Level)),
    st.builds(_Tag, st.text(max_size=6)),
)
_ANY_KEYS = st.one_of(_EXACT_KEYS, _OTHER_KEYS)


class TestSeedPrefix:
    """``SeedPrefix(*prefix)(*suffix)`` is ``seed_for(*prefix, *suffix)``."""

    @given(
        prefix=st.lists(_EXACT_KEYS, max_size=4),
        suffix=st.lists(_EXACT_KEYS, max_size=4),
    )
    def test_exact_keys_match_seed_for(self, prefix, suffix):
        seeds = SeedPrefix(*prefix)
        assert seeds(*suffix) == seed_for(*prefix, *suffix)
        # The cached prefix state is copied, never consumed.
        assert seeds(*suffix) == seed_for(*prefix, *suffix)

    @given(
        prefix=st.lists(_ANY_KEYS, max_size=3),
        suffix=st.lists(_ANY_KEYS, max_size=3),
    )
    def test_any_keys_match_seed_for(self, prefix, suffix):
        assert SeedPrefix(*prefix)(*suffix) == seed_for(*prefix, *suffix)

    @pytest.mark.parametrize(
        "prefix, suffix",
        [
            (("image-noise", "sdxl"), ("img/1",)),
            (("s",), ("",)),
            ((), ("a", 1)),
            (("a",), ()),
            ((), ()),
            (("x", True), ("y",)),
            (("x",), (True,)),
            (("x",), (1.0,)),
            (("x",), (b"raw",)),
            (("x",), (_Level.HIGH,)),
            ((_Tag("t"),), ("y",)),
            (("x",), (_Tag("t"), 2)),
            (("\x1f",), ("\x1f",)),
            ((-(2**70),), (2**64 + 1, "\u00e9")),
        ],
    )
    def test_edge_cases_match_seed_for(self, prefix, suffix):
        assert SeedPrefix(*prefix)(*suffix) == seed_for(*prefix, *suffix)


class TestKeyedDrawOracle:
    """``draw_batch`` items may carry a precomputed int seed."""

    _ITEMS = st.lists(
        st.tuples(
            st.sampled_from([None, 2, 16, 48]),
            st.booleans(),
            st.lists(_ANY_KEYS, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        max_size=12,
    )

    @given(items=_ITEMS)
    def test_int_seed_items_match_key_tuples(self, items):
        keyed = [(dim, memo, keys) for dim, memo, keys, _ in items]
        seeded = [
            (dim, memo, seed_for(*keys) if as_int else keys)
            for dim, memo, keys, as_int in items
        ]
        by_keys = DirectionCache().draw_batch(keyed)
        cache = DirectionCache()
        by_seeds = cache.draw_batch(seeded)
        for (dim, _, keys), a, b in zip(keyed, by_keys, by_seeds):
            rng = rng_for(*keys)
            if dim is None:
                assert a == b == float(rng.standard_normal())
            else:
                ref = unit_vector(rng, dim)
                assert a.tobytes() == b.tobytes() == ref.tobytes()
        # Memos are keyed by seed, whichever form the item used.
        for dim, memo, keys in keyed:
            if memo and dim is not None:
                hits = cache.hits
                cache.unit(dim, *keys)
                assert cache.hits == hits + 1


class TestParkedDraw:
    """A parked vector is a one-shot memo of ``fresh_unit``."""

    @staticmethod
    def _parked(cache, dim, keys):
        seed = seed_for(*keys)
        vec = cache.draw_batch([(dim, False, seed)])[0]
        cache.park(dim, seed, vec)
        return seed, vec

    def test_returned_once_for_its_key(self):
        cache = DirectionCache()
        seed, vec = self._parked(cache, 48, ("park", "img-1"))
        assert cache.fresh_unit(48, "park", "img-1") is vec
        again = cache.fresh_unit(48, seed=seed)
        assert again is not vec
        assert again.tobytes() == vec.tobytes()
        ref = unit_vector(rng_for("park", "img-1"), 48)
        assert vec.tobytes() == ref.tobytes()

    def test_other_keys_draw_and_keep_it_parked(self):
        cache = DirectionCache()
        seed, vec = self._parked(cache, 48, ("park", "img-2"))
        other = cache.fresh_unit(48, "park", "img-3")
        assert other.tobytes() == (
            unit_vector(rng_for("park", "img-3"), 48).tobytes()
        )
        # Same seed, other dimension: a different stream prefix.
        narrow = cache.fresh_unit(16, seed=seed)
        assert narrow.tobytes() == (
            unit_vector(rng_for("park", "img-2"), 16).tobytes()
        )
        assert cache.fresh_unit(48, seed=seed) is vec

    def test_parking_replaces_the_slot(self):
        cache = DirectionCache()
        seed_a, vec_a = self._parked(cache, 48, ("park", "a"))
        seed_b, vec_b = self._parked(cache, 48, ("park", "b"))
        fresh_a = cache.fresh_unit(48, seed=seed_a)
        assert fresh_a is not vec_a
        assert fresh_a.tobytes() == vec_a.tobytes()
        assert cache.fresh_unit(48, seed=seed_b) is vec_b

    def test_clear_drops_it(self):
        cache = DirectionCache()
        seed, vec = self._parked(cache, 48, ("park", "c"))
        cache.clear()
        assert cache.fresh_unit(48, seed=seed) is not vec

    def test_clear_hotpath_memos_drops_it(self):
        from repro._rng import directions
        from repro.core.serving import clear_hotpath_memos

        seed, vec = self._parked(directions, 48, ("park", "d"))
        clear_hotpath_memos()
        assert directions.fresh_unit(48, seed=seed) is not vec

    def test_model_parks_the_encoder_noise(self, space, prompts):
        from repro._rng import directions
        from repro.diffusion.model import DiffusionModelSim, clear_model_memos
        from repro.diffusion.registry import get_model

        clear_model_memos()  # a content-memo hit would draw nothing
        model = DiffusionModelSim(get_model("sdxl"), space)
        image = model.generate(prompts[0], seed="park").image
        dim = space.config.semantic_dim
        keys = ("image-encoder-noise", space.config.seed, image.image_id)
        seed = space.image_noise_seed(image.image_id)
        assert seed == seed_for(*keys)
        parked = directions._parked
        assert parked is not None and parked[0] == (dim, seed)
        assert directions.fresh_unit(dim, seed=seed) is parked[1]
        ref = unit_vector(rng_for(*keys), dim)
        assert parked[1].tobytes() == ref.tobytes()
        assert directions._parked is None


class TestRngFor:
    def test_same_keys_same_stream(self):
        a = rng_for("stream", 7).standard_normal(8)
        b = rng_for("stream", 7).standard_normal(8)
        assert np.allclose(a, b)

    def test_different_keys_different_stream(self):
        a = rng_for("stream", 7).standard_normal(8)
        b = rng_for("stream", 8).standard_normal(8)
        assert not np.allclose(a, b)


class TestRngsFor:
    """Batched streams must replay the oracle ``rng_for`` exactly."""

    @staticmethod
    def _draws(rng, i):
        # A mixed sequence: buffered 32-bit integers, wide integers,
        # doubles and gaussians, in an order that varies per stream.
        out = [int(rng.integers(2)), int(rng.integers(7 + i))]
        if i % 2:
            out.append(float(rng.random()))
        out.append(rng.standard_normal(5 + i % 3).tobytes())
        out.append(int(rng.integers(0, 2**40)))
        out.append(float(rng.standard_normal()))
        return out

    @staticmethod
    def _key_tuples(n):
        return [
            ("rngs", i) if i % 3 == 0 else ("rngs", f"k{i}", -i, 0.5 * i)
            for i in range(n)
        ]

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 20])
    def test_matches_rng_for(self, n):
        keys = self._key_tuples(n)
        batched = [
            self._draws(rng, i) for i, rng in enumerate(rngs_for(keys))
        ]
        oracle = [self._draws(rng_for(*k), i) for i, k in enumerate(keys)]
        assert batched == oracle

    def test_repeated_keys_restart_the_stream(self):
        keys = [("rep",), ("other",), ("rep",)]
        draws = [rng.standard_normal(3).tobytes() for rng in rngs_for(keys)]
        assert draws[0] == draws[2] != draws[1]

    def test_empty_batch_yields_nothing(self):
        assert list(rngs_for([])) == []

    def test_live_iterators_hold_separate_generators(self):
        keys_a = self._key_tuples(4)
        keys_b = [("rngs-b", i) for i in range(4)]
        it_a, it_b = rngs_for(keys_a), rngs_for(keys_b)
        out_a, out_b = [], []
        for i in range(4):
            rng_a = next(it_a)
            first = int(rng_a.integers(1000))
            rng_b = next(it_b)  # must not re-point rng_a
            assert rng_b is not rng_a
            out_b.append(self._draws(rng_b, i))
            out_a.append([first] + self._draws(rng_a, i))
        for i, k in enumerate(keys_a):
            rng = rng_for(*k)
            assert out_a[i] == [int(rng.integers(1000))] + self._draws(rng, i)
        assert out_b == [
            self._draws(rng_for(*k), i) for i, k in enumerate(keys_b)
        ]



class TestRngsForIntSeeds:
    """``rngs_for`` entries may be precomputed int seeds, mixed freely
    with key tuples, as ``draw_batch`` items may."""

    @given(
        entries=st.lists(
            st.tuples(
                st.lists(_ANY_KEYS, min_size=1, max_size=3).map(tuple),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_mixed_entries_match_key_tuples(self, entries):
        keys = [k for k, _ in entries]
        mixed = [seed_for(*k) if as_int else k for k, as_int in entries]
        draws = TestRngsFor._draws
        assert [
            draws(rng, i) for i, rng in enumerate(rngs_for(mixed))
        ] == [draws(rng, i) for i, rng in enumerate(rngs_for(keys))]

def _dict_set(state, inc):
    """A generator set to ``(state, inc)`` through numpy's dict setter."""
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bg)


def _stream_draws(gen):
    return [
        gen.standard_normal(48).tobytes(),
        gen.random(5).tobytes(),
        gen.integers(7, size=5).tolist(),
    ]


class TestDirectSeek:
    """``_FastStream.seek`` writes PCG64's state words directly; every
    seek must leave the generator exactly as numpy's dict setter would."""

    def test_layout_check_passes_on_this_build(self):
        # A stream that failed its check binds the dict setter as
        # ``seek`` on the instance; this numpy must take the direct path.
        assert "seek" not in vars(_FastStream())

    @given(
        st.integers(0, 2**128 - 1),
        st.integers(0, 2**128 - 1),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_dict_setter(self, state, inc, prior_seed):
        inc |= 1
        stream = _FastStream()
        stream.seek(_pcg64_raw_state(prior_seed)).integers(1 << 31)
        gen = stream.seek((state, inc))
        ref = _dict_set(state, inc)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert _stream_draws(gen) == _stream_draws(ref)

    def test_clears_a_buffered_half_draw(self):
        stream = _FastStream()
        gen = stream.seek(_pcg64_raw_state(seed_for("half", 0)))
        gen.integers(1 << 31)
        assert gen.bit_generator.state["has_uint32"] == 1
        seed = seed_for("half", 1)
        gen = stream.seek(_pcg64_raw_state(seed))
        fresh = np.random.Generator(np.random.PCG64(seed))
        assert gen.bit_generator.state == fresh.bit_generator.state
        assert [int(gen.integers(1 << 31)) for _ in range(3)] == [
            int(fresh.integers(1 << 31)) for _ in range(3)
        ]

    @staticmethod
    def _early_pointer_ctypes():
        """``ctypes`` whose state pointer lands 8 bytes early, so the
        state words read back out of place: a layout the check rejects."""
        real = _rng.ctypes
        return types.SimpleNamespace(
            c_void_p=types.SimpleNamespace(
                from_address=lambda addr: types.SimpleNamespace(
                    value=real.c_void_p.from_address(addr).value - 8
                )
            ),
            sizeof=lambda ctype: real.sizeof(real.c_void_p),
            c_uint8=real.c_uint8,
        )

    @pytest.mark.parametrize("layout", ["no-ctypes", "early-pointer"])
    def test_failed_layout_check_falls_back(self, monkeypatch, layout):
        fake = None if layout == "no-ctypes" else self._early_pointer_ctypes()
        monkeypatch.setattr(_rng, "ctypes", fake)
        fallback = _FastStream()
        monkeypatch.undo()
        assert vars(fallback)["seek"] == fallback._seek_dict
        direct = _FastStream()
        for i in range(5):
            raw = _pcg64_raw_state(seed_for("fallback", i))
            a, b = fallback.seek(raw), direct.seek(raw)
            assert a.bit_generator.state == b.bit_generator.state
            assert _stream_draws(a) == _stream_draws(b)
            a.integers(1 << 31)  # leave a half-draw for the next seek

    def test_rngs_for_with_integers_between_streams(self):
        keys = [("direct-seek", i, f"k{i % 3}") for i in range(20)]
        batched, oracle = [], []
        for rng in rngs_for(keys):
            batched.append(
                [rng.bit_generator.state, int(rng.integers(1 << 31))]
                + _stream_draws(rng)
                + [int(rng.integers(1 << 31))]
            )
        for k in keys:
            rng = rng_for(*k)
            oracle.append(
                [rng.bit_generator.state, int(rng.integers(1 << 31))]
                + _stream_draws(rng)
                + [int(rng.integers(1 << 31))]
            )
        assert batched == oracle


class TestUnitVector:
    def test_unit_norm(self):
        vec = unit_vector(rng_for("uv"), 32)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_dimension(self):
        assert unit_vector(rng_for("uv"), 17).shape == (17,)

    def test_deterministic(self):
        a = unit_vector(rng_for("uv", 1), 16)
        b = unit_vector(rng_for("uv", 1), 16)
        assert np.allclose(a, b)

    def test_high_dim_vectors_nearly_orthogonal(self):
        a = unit_vector(rng_for("uv", "x"), 256)
        b = unit_vector(rng_for("uv", "y"), 256)
        assert abs(float(a @ b)) < 0.3


class TestNormalize:
    def test_unit_output(self):
        out = normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_zero_vector_passthrough(self):
        zero = np.zeros(4)
        assert np.allclose(normalize(zero), zero)

    def test_direction_preserved(self):
        vec = np.array([2.0, 0.0, 0.0])
        assert np.allclose(normalize(vec), [1.0, 0.0, 0.0])


class TestFastSynthesis:
    """The DirectionCache fast path must be bit-identical to the
    reference ``unit_vector(rng_for(*keys), dim)`` implementation."""

    def _keys(self, n):
        # Mixed key shapes, including ones hashing to small seeds.
        out = [("stream-a", f"tok{i}", i % 5) for i in range(n)]
        out += [("s", i, float(i) / 3.0) for i in range(n // 2)]
        return out

    def test_raw_state_matches_numpy_pcg64(self):
        from repro._rng import _pcg64_raw_state

        seeds = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += [seed_for("k", i) for i in range(200)]
        for seed in seeds:
            state, inc = _pcg64_raw_state(seed)
            ref = np.random.PCG64(seed).state["state"]
            assert state == ref["state"]
            assert inc == ref["inc"]

    #: SeedSequence edge cases: zero high/low words and all-ones words.
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @staticmethod
    def _numpy_raw(seed):
        ref = np.random.PCG64(seed).state["state"]
        return ref["state"], ref["inc"]

    def test_packed_replay_matches_numpy_pcg64(self):
        from repro._rng import _MAX_LANES, _pcg64_raw_state, _raw_state_fn

        seeds = self.EDGE_SEEDS + [seed_for("lane", i) for i in range(10)]
        ref = [self._numpy_raw(s) for s in seeds]
        assert _MAX_LANES == 8
        for n in range(1, _MAX_LANES + 1):
            fn = _raw_state_fn(n)
            assert _raw_state_fn(n) is fn  # generated once per lane count
            # Every window, so each edge seed sits in every lane.
            for start in range(len(seeds) - n + 1):
                window = seeds[start:start + n]
                got = fn(*window) if n > 1 else [fn(window[0])]
                assert got == ref[start:start + n], (n, start)
        assert _raw_state_fn(1) is _pcg64_raw_state

    def test_raw_states_chunk_past_max_lanes(self):
        from repro._rng import _pcg64_raw_states

        # 8 + 8 + 1 + ... : full chunks plus a scalar tail.
        for count in (9, 17, 23):
            seeds = [seed_for("chunk", count, i) for i in range(count)]
            seeds[::5] = self.EDGE_SEEDS[: len(seeds[::5])]
            assert _pcg64_raw_states(seeds) == [
                self._numpy_raw(s) for s in seeds
            ]
        assert _pcg64_raw_states([]) == []

    def test_unit_bit_identical_to_reference(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        for keys in self._keys(100):
            for dim in (2, 48, 50):
                ref = unit_vector(rng_for(*keys), dim)
                assert (cache.unit(dim, *keys) == ref).all()

    def test_units_batch_bit_identical(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        keys = self._keys(40)
        # Pre-warm half so the batch mixes cached and fresh rows.
        for k in keys[::2]:
            cache.unit(48, *k)
        out = cache.units(48, keys)
        assert out.shape == (len(keys), 48)
        for i, k in enumerate(keys):
            assert (out[i] == unit_vector(rng_for(*k), 48)).all()

    def test_units_past_max_lanes_all_fresh(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        keys = [("wide", i) for i in range(19)]
        out = cache.units(50, keys)
        assert out.shape == (19, 50)
        assert (cache.hits, cache.misses) == (0, 19)
        for i, k in enumerate(keys):
            assert (out[i] == unit_vector(rng_for(*k), 50)).all()
        assert cache.units(50, []).shape == (0, 50)

    def test_normal_and_fresh_match_reference(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        for keys in self._keys(50):
            ref_scalar = float(rng_for(*keys).standard_normal())
            memo, fresh = cache.draw_batch(
                [(None, True, keys), (None, False, keys)]
            )
            assert memo == ref_scalar and fresh == ref_scalar
            assert type(memo) is float and type(fresh) is float
            ref_vec = unit_vector(rng_for(*keys), 24)
            assert (cache.fresh_unit(24, *keys) == ref_vec).all()

    def test_draw_batch_mixed_items_match_reference(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        keys = self._keys(12)
        # Pre-warm some memos so the batch mixes hits and misses.
        cache.unit(48, *keys[0])
        cache.draw_batch([(None, True, keys[1])])
        items = []
        for i, k in enumerate(keys):
            dim = None if i % 3 == 1 else (48, 50, 48)[i % 3]
            items.append((dim, i % 4 != 3, k))
        out = cache.draw_batch(items)
        assert len(out) == len(items)
        for (dim, memoize, k), value in zip(items, out):
            rng = rng_for(*k)
            if dim is None:
                assert value == float(rng.standard_normal())
            else:
                assert (value == unit_vector(rng, dim)).all()
                assert value.flags.writeable != memoize
        # Memoized results are the ones the single-key methods return.
        assert out[0] is cache.unit(48, *keys[0])
        assert cache.draw_batch([]) == []

    def test_draw_batch_repeated_key_and_counters(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        cache.unit(16, "rep", "warm")
        hits, misses = cache.hits, cache.misses
        items = [
            (16, True, ("rep", "a")),
            (16, True, ("rep", "warm")),  # memo hit
            (16, True, ("rep", "a")),  # repeat within the batch: a hit
            (8, True, ("rep", "a")),  # same key, other dim: its own memo
            (None, True, ("rep", "a")),  # scalar memo is separate too
            (None, True, ("rep", "a")),  # repeated scalar: a hit
            (16, False, ("rep", "a")),  # fresh: never counted
            (16, False, ("rep", "a")),
        ]
        out = cache.draw_batch(items)
        assert (cache.hits - hits, cache.misses - misses) == (3, 3)
        assert out[2] is out[0] and out[5] == out[4]
        assert out[6] is not out[0] and out[7] is not out[6]
        ref = unit_vector(rng_for("rep", "a"), 16)
        for i in (0, 2, 6, 7):
            assert (out[i] == ref).all()
        assert (out[3] == unit_vector(rng_for("rep", "a"), 8)).all()
        assert out[4] == float(rng_for("rep", "a").standard_normal())
        # A sequential replay of the memoized items counts the same.
        seq = DirectionCache()
        seq.unit(16, "rep", "warm")
        for dim, memoize, keys in items:
            if memoize and dim is not None:
                seq.unit(dim, *keys)
        seq.draw_batch([(None, True, ("rep", "a"))] * 2)
        assert (seq.hits, seq.misses) == (cache.hits, cache.misses)

    def test_memo_returns_shared_readonly_array(self):
        from repro._rng import DirectionCache

        cache = DirectionCache()
        a = cache.unit(48, "memo", 1)
        b = cache.unit(48, "memo", 1)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
        assert cache.hits == 1 and cache.misses == 1

    def test_max_entries_bounds_cache(self):
        from repro._rng import DirectionCache

        cache = DirectionCache(max_entries=8)
        for i in range(25):
            cache.unit(8, "bound", i)
        assert len(cache) <= 8

    def test_module_cache_clear(self):
        from repro._rng import directions

        directions.unit(16, "clear-check", 0)
        assert len(directions) > 0
        directions.clear()
        assert len(directions) == 0
        assert directions.hits == 0 and directions.misses == 0


class TestNormalizeExtremeRange:
    """normalize must stay accurate when dot(v, v) under/overflows.

    Regression for a hypothesis-found case: a single subnormal-squared
    entry made the plain sqrt(dot) norm (and numpy's identical formula)
    badly rounded, so normalize was not idempotent.
    """

    def test_subnormal_entry_idempotent(self):
        vec = np.array([4.247056101277342e-162])
        once = normalize(vec)
        assert np.allclose(once, [1.0])
        assert np.allclose(normalize(once), once, atol=1e-12)

    def test_huge_entries_idempotent(self):
        vec = np.array([1e200, -1e200, 3e199])
        once = normalize(vec)
        assert np.isclose(float(np.dot(once, once)), 1.0)
        assert np.allclose(normalize(once), once, atol=1e-12)

    def test_inf_entry_falls_back_gracefully(self):
        vec = np.array([np.inf, 1.0])
        out = normalize(vec)
        assert out.shape == vec.shape
        assert np.isfinite(out).all()
        assert np.allclose(out, [1.0, 0.0])

    def test_mixed_inf_signs_unit_norm(self):
        out = normalize(np.array([np.inf, -np.inf, 5.0, 0.0]))
        assert np.allclose(out, [0.5**0.5, -(0.5**0.5), 0.0, 0.0])
        assert np.isclose(float(np.dot(out, out)), 1.0)

    def test_nan_entries_treated_as_zero(self):
        out = normalize(np.array([np.nan, 3.0, 4.0]))
        assert np.allclose(out, [0.0, 0.6, 0.8])

    def test_all_nan_maps_to_zero_vector(self):
        out = normalize(np.array([np.nan, np.nan]))
        assert (out == 0.0).all()

    def test_nonfinite_matches_2d_path(self):
        # 1-D float vectors take the sqrt(dot) path, other shapes go
        # through np.linalg.norm; both fall back identically.
        for raw in ([np.inf, 1.0], [np.nan, 3.0, 4.0], [np.inf, -np.inf]):
            vec = np.array(raw)
            assert (normalize(vec) == normalize(vec[None, :])[0]).all()

    def test_huge_entries_2d_unit_frobenius(self):
        mat = np.array([[1e200, 1.0], [-1e200, 3e199]])
        out = normalize(mat)
        assert np.isclose(float((out * out).sum()), 1.0)

    def test_normal_range_matches_linalg_norm(self):
        rng = rng_for("normalize-range")
        for _ in range(200):
            vec = rng.standard_normal(48) * float(rng.uniform(0.1, 10.0))
            ref = vec / float(np.linalg.norm(vec))
            assert (normalize(vec) == ref).all()


_row_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 1e-200, -1e-200, 1e-150, 1e200, -1e300, 5e-324]
    ),
)


class TestNormalizeRowsOracle:
    """Every row of ``normalize_rows`` is ``normalize`` of that row, byte
    for byte: zero rows, extreme magnitudes, NaN/inf rows included."""

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 9)),
        data=st.data(),
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_match_normalize(self, shape, data):
        n, d = shape
        mat = np.array(
            data.draw(
                st.lists(
                    st.lists(_row_values, min_size=d, max_size=d),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=float,
        ).reshape(n, d)
        before = mat.tobytes()
        out = normalize_rows(mat)
        assert mat.tobytes() == before
        assert out.shape == mat.shape
        for row, got in zip(mat, out):
            assert got.tobytes() == normalize(row.copy()).tobytes()

    def test_warnings_as_errors(self):
        import warnings

        mat = np.array([[1e200, -1e200, 3e199], [3.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = normalize_rows(mat)
            for row, got in zip(mat, out):
                assert got.tobytes() == normalize(row.copy()).tobytes()

    def test_matrix_rows_match_standalone_vectors(self):
        mat = rng_for("normalize-rows").standard_normal((300, 48))
        out = normalize_rows(mat)
        for row, got in zip(mat, out):
            assert got.tobytes() == normalize(row.copy()).tobytes()


class TestParkedRows:
    """``park_rows`` parks one batch; ``fresh_unit`` and ``fresh_units``
    hand each row over once."""

    @staticmethod
    def _parked(cache, dim, names):
        seeds = [seed_for("park-rows", name) for name in names]
        rows = cache.draw_batch([(dim, False, s) for s in seeds])
        cache.park_rows(dim, seeds, rows)
        return seeds, rows

    def test_each_row_returned_once(self):
        cache = DirectionCache()
        seeds, rows = self._parked(cache, 48, ["a", "b", "c"])
        assert cache.fresh_unit(48, seed=seeds[1]) is rows[1]
        again = cache.fresh_unit(48, seed=seeds[1])
        assert again is not rows[1]
        assert again.tobytes() == rows[1].tobytes()
        got = cache.fresh_units(48, seeds)
        assert got[0] is rows[0] and got[2] is rows[2]
        assert got[1].tobytes() == rows[1].tobytes()
        assert not cache._parked_rows

    def test_fresh_units_match_the_oracle(self):
        cache = DirectionCache()
        seeds, rows = self._parked(cache, 16, ["d", "e"])
        other = seed_for("park-rows", "f")
        got = cache.fresh_units(16, [other, seeds[0], other])
        assert got[1] is rows[0]
        ref = unit_vector(rng_for("park-rows", "f"), 16)
        assert got[0].tobytes() == got[2].tobytes() == ref.tobytes()
        # Same seed, other dimension: not the parked row.
        narrow = cache.fresh_units(8, [seeds[1]])[0]
        ref = unit_vector(rng_for("park-rows", "e"), 8)
        assert narrow.tobytes() == ref.tobytes()
        assert cache.fresh_unit(16, seed=seeds[1]) is rows[1]

    def test_parking_replaces_the_batch(self):
        cache = DirectionCache()
        seeds_a, rows_a = self._parked(cache, 48, ["g", "h"])
        seed, vec = seeds_a[0], rows_a[0]
        one = seed_for("park-rows", "i")
        single = cache.draw_batch([(48, False, one)])[0]
        cache.park(48, one, single)
        assert cache.fresh_unit(48, seed=seed) is not vec
        seeds_b, rows_b = self._parked(cache, 48, ["j", "k"])
        assert cache.fresh_unit(48, seed=one) is not single
        assert cache.fresh_unit(48, seed=seeds_b[0]) is rows_b[0]

    def test_one_row_parks_in_the_single_slot(self):
        cache = DirectionCache()
        seeds, rows = self._parked(cache, 48, ["l"])
        assert cache._parked == ((48, seeds[0]), rows[0])
        assert not cache._parked_rows

    def test_clear_drops_them(self):
        cache = DirectionCache()
        seeds, rows = self._parked(cache, 48, ["m", "n"])
        cache.clear()
        assert cache.fresh_unit(48, seed=seeds[0]) is not rows[0]
