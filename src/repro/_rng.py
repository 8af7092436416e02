"""Deterministic random-number utilities.

Every stochastic component in the reproduction derives its randomness from a
named stream so that traces, embeddings, generations, and simulations are
bit-for-bit reproducible across runs and machines.  A stream is identified by
an arbitrary tuple of keys (strings, ints, floats); the tuple is hashed with
BLAKE2b into a 64-bit seed for a :class:`numpy.random.Generator`.

Two implementations of keyed synthesis coexist:

* The **reference path** (:func:`rng_for` + :func:`unit_vector`) constructs a
  fresh ``numpy.random.default_rng`` per key tuple.  It is the correctness
  oracle.
* The **fast path** (:class:`DirectionCache`, exposed as the module-level
  :data:`directions`) produces bit-identical values by (a) memoizing draws
  whose key tuples recur and (b) replaying numpy's ``SeedSequence`` entropy
  mixing and PCG64 seeding in optimized form so a single long-lived
  generator can be re-pointed at any keyed stream without paying full
  object construction per draw.  ``tests/test_rng.py`` pins the two paths
  bit-for-bit against each other.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

Key = Union[str, int, float, bytes]

_SEPARATOR = b"\x1f"


def seed_for(*keys: Key) -> int:
    """Derive a stable 64-bit seed from a tuple of keys.

    The mapping is independent of Python's per-process ``hash()``
    randomization, so it is stable across interpreter invocations.  The
    key material is assembled into one buffer and hashed in a single call
    (identical digest to incremental updates, fewer C round-trips).
    """
    parts = []
    for key in keys:
        if isinstance(key, bytes):
            parts.append(key)
        elif isinstance(key, float):
            # repr() keeps full precision and differentiates 1 from 1.0.
            parts.append(repr(key).encode("utf-8"))
        else:
            parts.append(str(key).encode("utf-8"))
        parts.append(_SEPARATOR)
    digest = hashlib.blake2b(b"".join(parts), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def rng_for(*keys: Key) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded from ``keys``."""
    return np.random.default_rng(seed_for(*keys))


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Sample a uniformly distributed unit vector of dimension ``dim``."""
    vec = rng.standard_normal(dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # pragma: no cover - probability zero
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def _normalize_nonfinite(vec: np.ndarray) -> np.ndarray:
    """Deterministic, warning-free ``normalize`` of a NaN/inf vector.

    Infinite entries dominate any finite ones in the limit, so the result
    points along the signs of the infinite components (each weighted
    equally) with every finite component at zero.  With no infinities,
    NaN entries are treated as contributing nothing: they are replaced by
    zero and the remaining finite vector is normalized (an all-NaN vector
    therefore maps to the zero vector, mirroring the zero-input
    pass-through).
    """
    inf_mask = np.isinf(vec)
    if inf_mask.any():
        out = np.zeros_like(vec)
        out[inf_mask] = np.sign(vec[inf_mask])
        return out / math.sqrt(float(inf_mask.sum()))
    return normalize(np.where(np.isnan(vec), 0.0, vec))


def normalize(vec: np.ndarray) -> np.ndarray:
    """Return ``vec`` scaled to unit L2 norm (zero vectors pass through).

    For 1-D float vectors the norm is ``sqrt(dot(v, v))`` — the exact
    computation ``np.linalg.norm`` performs for that case — evaluated
    without the ``linalg`` dispatch overhead, so results stay bit-identical
    to ``np.linalg.norm`` while the call is ~3x cheaper on the 48-dim
    vectors the hot loop normalizes constantly.  Other shapes and dtypes
    go through ``np.linalg.norm``.

    When ``dot(v, v)`` leaves the normal double range (entries below
    ~1e-140 or above ~1e140), the squared sum under- or overflows and the
    plain formula — in numpy's implementation just like here — returns a
    badly rounded norm.  That range never occurs in the serving pipeline
    (everything is unit-scale), but ``normalize`` is a public utility, so
    it falls back to a scaled two-pass norm there instead of inheriting
    the inaccuracy.  Vectors carrying NaN/inf entries take the
    :func:`_normalize_nonfinite` fallback instead of poisoning the output
    (and warning) through a non-finite norm.
    """
    if vec.ndim == 1 and vec.dtype.kind == "f":
        try:
            sq = float(np.dot(vec, vec))
        except RuntimeWarning:
            # Entries beyond ~1e154 overflow the dot's reduction; under
            # promoted warning filters (-W error::RuntimeWarning) numpy
            # raises before returning.  Record the overflow and continue
            # on the slow branch — inputs this extreme never occur on the
            # serving hot path, so the probe stays unguarded (and fast).
            sq = math.inf
        if 1e-280 < sq < 1e280:
            norm = math.sqrt(sq)
        elif sq == 0.0:
            return vec
        else:
            # sq under/overflowed (extreme magnitudes) or is NaN
            # (non-finite entries); both are off the hot path.
            if not np.isfinite(vec).all():
                return _normalize_nonfinite(vec)
            peak = float(np.max(np.abs(vec)))
            scaled = vec / peak
            norm = peak * math.sqrt(float(np.dot(scaled, scaled)))
    else:
        try:
            norm = float(np.linalg.norm(vec))
        except RuntimeWarning:
            norm = math.inf
        if not math.isfinite(norm):
            if not np.isfinite(vec).all():
                return _normalize_nonfinite(vec)
            # Finite entries whose squared sum overflowed: same
            # peak-scaled two-pass as the fast path's slow branch
            # (norm(v) = peak * norm(v / peak), exact in real arithmetic).
            peak = float(np.max(np.abs(vec)))
            scaled = vec / peak
            norm = peak * float(np.linalg.norm(scaled))
    if norm == 0.0:
        return vec
    return vec / norm


# ----------------------------------------------------------------------
# Fast keyed synthesis: numpy SeedSequence mixing + PCG64 seeding replayed
# ----------------------------------------------------------------------
# Constants of numpy's SeedSequence entropy-mixing hash (bit_generator.pyx)
# and of PCG64's seeding step.  The fast path replays both exactly; the
# equivalence is pinned by tests, never assumed.
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hash_constants(init: int, count: int) -> Tuple[int, ...]:
    """The fixed ``hash_const`` sequence SeedSequence mixing walks through.

    The constant stream does not depend on the entropy being mixed, so it
    is precomputed once: element ``i`` is the multiplier in effect for the
    ``i``-th hashed word.
    """
    out = []
    hc = init
    for _ in range(count):
        hc = (hc * (_MULT_A if init == _INIT_A else _MULT_B)) & _M32
        out.append(hc)
    return tuple(out)


#: Post-multiply hash constants for the 16 mixing steps (pool fill + 4x4
#: cross-mix) and the 8 generate_state steps of a 4-word pool.
_HC_MIX = _hash_constants(_INIT_A, 16)
_HC_GEN = _hash_constants(_INIT_B, 8)
#: Pre-xor constants: the hash_const *before* each multiply.
_HC_MIX_PRE = (_INIT_A,) + _HC_MIX[:-1]
_HC_GEN_PRE = (_INIT_B,) + _HC_GEN[:-1]

#: (i_src, i_dst) visit order of SeedSequence's pool cross-mix.
_MIX_PAIRS = tuple(
    (i_src, i_dst)
    for i_src in range(4)
    for i_dst in range(4)
    if i_src != i_dst
)


def _build_raw_state_fn():
    """Generate a fully unrolled ``_pcg64_raw_state`` with inlined constants.

    Replays SeedSequence's entropy mixing (4-word pool, two 32-bit entropy
    words — a 64-bit seed never exceeds two, and a high word of zero mixes
    identically to absent entropy) and PCG64's two-step seeding.  The
    unrolled form avoids all loop/indexing overhead on the per-draw hot
    path; bit-identity with numpy is pinned by ``tests/test_rng.py``.
    """
    lines = [
        "def _pcg64_raw_state(seed):",
        "    e0 = seed & M",
        "    e1 = (seed >> 32) & M",
    ]
    pool_expr = ["e0", "e1", "0", "0"]
    step = 0
    for i in range(4):
        lines.append(
            f"    v = ({pool_expr[i]} ^ {_HC_MIX_PRE[step]}) "
            f"* {_HC_MIX[step]} & M"
        )
        lines.append(f"    p{i} = v ^ (v >> 16)")
        pool_expr[i] = f"p{i}"
        step += 1
    for i_src, i_dst in _MIX_PAIRS:
        lines.append(
            f"    v = (p{i_src} ^ {_HC_MIX_PRE[step]}) "
            f"* {_HC_MIX[step]} & M"
        )
        lines.append("    v ^= v >> 16")
        lines.append(
            f"    r = (p{i_dst} * {_MIX_L} & M) - (v * {_MIX_R} & M) & M"
        )
        lines.append(f"    p{i_dst} = r ^ (r >> 16)")
        step += 1
    for i in range(8):
        lines.append(
            f"    v = (p{i & 3} ^ {_HC_GEN_PRE[i]}) * {_HC_GEN[i]} & M"
        )
        lines.append(f"    w{i} = v ^ (v >> 16)")
    lines += [
        "    initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2",
        "    initseq = (w5 << 96) | (w4 << 64) | (w7 << 32) | w6",
        "    inc = ((initseq << 1) | 1) & M128",
        "    state = (inc + initstate) & M128",
        f"    state = (state * {_PCG_MULT} + inc) & M128",
        "    return state, inc",
    ]
    namespace = {"M": _M32, "M128": _M128}
    exec("\n".join(lines), namespace)
    return namespace["_pcg64_raw_state"]


#: (state, inc) of ``PCG64(seed)`` for a 64-bit ``seed``, replayed exactly.
_pcg64_raw_state = _build_raw_state_fn()


def _pcg64_raw_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """Vectorized :func:`_pcg64_raw_state` over many seeds.

    One pass of uint32 numpy arithmetic mixes every seed's entropy pool
    simultaneously — the per-step hash constants are seed-independent, so
    the whole SeedSequence walk becomes ~60 elementwise array ops
    regardless of batch size.
    """
    arr = np.asarray(seeds, dtype=np.uint64)
    ent = np.empty((4, arr.shape[0]), dtype=np.uint32)
    ent[0] = (arr & np.uint64(_M32)).astype(np.uint32)
    ent[1] = (arr >> np.uint64(32)).astype(np.uint32)
    ent[2] = 0
    ent[3] = 0
    with np.errstate(over="ignore"):
        pool = [None] * 4
        for i in range(4):
            v = (ent[i] ^ np.uint32(_HC_MIX_PRE[i])) * np.uint32(_HC_MIX[i])
            pool[i] = v ^ (v >> np.uint32(16))
        step = 4
        for i_src, i_dst in _MIX_PAIRS:
            v = (pool[i_src] ^ np.uint32(_HC_MIX_PRE[step])) * np.uint32(
                _HC_MIX[step]
            )
            v ^= v >> np.uint32(16)
            r = pool[i_dst] * np.uint32(_MIX_L) - v * np.uint32(_MIX_R)
            pool[i_dst] = r ^ (r >> np.uint32(16))
            step += 1
        words = []
        for i in range(8):
            v = (pool[i & 3] ^ np.uint32(_HC_GEN_PRE[i])) * np.uint32(
                _HC_GEN[i]
            )
            words.append(v ^ (v >> np.uint32(16)))
    w_lists = [w.tolist() for w in words]
    out: List[Tuple[int, int]] = []
    for j in range(arr.shape[0]):
        initstate = (
            (w_lists[1][j] << 96)
            | (w_lists[0][j] << 64)
            | (w_lists[3][j] << 32)
            | w_lists[2][j]
        )
        initseq = (
            (w_lists[5][j] << 96)
            | (w_lists[4][j] << 64)
            | (w_lists[7][j] << 32)
            | w_lists[6][j]
        )
        inc = ((initseq << 1) | 1) & _M128
        state = (inc + initstate) & _M128
        state = (state * _PCG_MULT + inc) & _M128
        out.append((state, inc))
    return out


class _FastStream:
    """One long-lived PCG64 generator re-pointed at keyed streams.

    Setting raw PCG64 state is ~10x cheaper than constructing
    ``default_rng`` per key; the draws are bit-identical because the state
    is exactly what ``PCG64(seed)`` would have produced.
    """

    def __init__(self) -> None:
        self._bg = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bg)
        self._state_template = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, raw: Tuple[int, int]) -> np.random.Generator:
        tmpl = self._state_template
        tmpl["state"]["state"] = raw[0]
        tmpl["state"]["inc"] = raw[1]
        self._bg.state = tmpl
        return self._gen

    def standard_normal(self, seed: int, dim: int) -> np.ndarray:
        return self.seek(_pcg64_raw_state(seed)).standard_normal(dim)


def _finish_unit(vec: np.ndarray) -> np.ndarray:
    """Normalize a raw gaussian draw exactly like :func:`unit_vector`.

    The in-place divide is safe (``vec`` is freshly drawn and owned) and
    bit-identical to the reference's out-of-place ``vec / norm``.
    """
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm == 0.0:  # pragma: no cover - probability zero
        vec[0] = 1.0
        norm = 1.0
    vec /= norm
    return vec


class DirectionCache:
    """Memoized, fast-path synthesis of keyed unit vectors and scalars.

    Keyed directions (natural/idiosyncratic/fingerprint/set-drift streams,
    vocabulary surface tokens, …) are pure functions of their key tuples,
    yet recur across generations.  This cache (a) memoizes draws whose
    keys recur and
    (b) synthesizes cache misses through :class:`_FastStream` instead of a
    fresh ``default_rng`` per key.  Both layers are bit-identical to the
    reference path.

    Cached arrays are marked read-only: callers share them.
    """

    def __init__(self, max_entries: int = 150_000):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._units: Dict[Tuple[int, int], np.ndarray] = {}
        self._scalars: Dict[int, float] = {}
        self._stream = _FastStream()

    # ------------------------------------------------------------------
    # Memoized draws (recurring keys)
    # ------------------------------------------------------------------
    def unit(self, dim: int, *keys: Key) -> np.ndarray:
        """Memoized ``unit_vector(rng_for(*keys), dim)``.

        Memos are keyed by ``(dim, seed_for(*keys))`` rather than the raw
        key tuple: tuple equality would alias keys like ``1`` and ``1.0``
        that :func:`seed_for` deliberately distinguishes.
        """
        seed = seed_for(*keys)
        cache_key = (dim, seed)
        vec = self._units.get(cache_key)
        if vec is not None:
            self.hits += 1
            return vec
        self.misses += 1
        vec = _finish_unit(self._stream.standard_normal(seed, dim))
        vec.flags.writeable = False
        if len(self._units) >= self.max_entries:
            self._units.clear()
        self._units[cache_key] = vec
        return vec

    def units(
        self, dim: int, key_tuples: Sequence[Tuple[Key, ...]]
    ) -> np.ndarray:
        """Batched :meth:`unit`: one ``(n, dim)`` row per key tuple.

        Cached rows are gathered straight from the memo; misses are
        synthesized together — their SeedSequence mixing runs as one
        vectorized uint32 pass over all missing seeds.
        """
        n = len(key_tuples)
        out = np.empty((n, dim), dtype=float)
        miss_idx: List[int] = []
        miss_seeds: List[int] = []
        for i, keys in enumerate(key_tuples):
            seed = seed_for(*keys)
            cached = self._units.get((dim, seed))
            if cached is not None:
                self.hits += 1
                out[i] = cached
            else:
                miss_idx.append(i)
                miss_seeds.append(seed)
        if miss_idx:
            self.misses += len(miss_idx)
            raws = _pcg64_raw_states(miss_seeds)
            stream = self._stream
            if len(self._units) + len(miss_idx) > self.max_entries:
                self._units.clear()
            for i, seed, raw in zip(miss_idx, miss_seeds, raws):
                vec = _finish_unit(stream.seek(raw).standard_normal(dim))
                vec.flags.writeable = False
                self._units[(dim, seed)] = vec
                out[i] = vec
        return out

    def normal(self, *keys: Key) -> float:
        """Memoized scalar ``rng_for(*keys).standard_normal()``."""
        seed = seed_for(*keys)
        vals = self._scalars
        val = vals.get(seed)
        if val is not None:
            self.hits += 1
            return val
        self.misses += 1
        val = float(
            self._stream.seek(_pcg64_raw_state(seed)).standard_normal()
        )
        if len(vals) >= self.max_entries:
            vals.clear()
        vals[seed] = val
        return val

    # ------------------------------------------------------------------
    # Non-memoized fast draws (unique keys, e.g. per-image noise)
    # ------------------------------------------------------------------
    def fresh_unit(self, dim: int, *keys: Key) -> np.ndarray:
        """Fast-path ``unit_vector(rng_for(*keys), dim)`` without caching.

        For keys that never recur (per-image sampling noise keyed by unique
        image ids) memoization would only leak memory; this still skips the
        per-key generator construction.
        """
        return _finish_unit(
            self._stream.standard_normal(seed_for(*keys), dim)
        )

    def fresh_normal(self, *keys: Key) -> float:
        """Fast-path scalar draw without caching."""
        return float(
            self._stream.seek(
                _pcg64_raw_state(seed_for(*keys))
            ).standard_normal()
        )

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._units.clear()
        self._scalars.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._units) + len(self._scalars)


#: Process-wide direction cache every fast-path consumer threads through.
directions = DirectionCache()

