"""Deterministic random-number utilities.

Every stochastic component in the reproduction derives its randomness from a
named stream so that traces, embeddings, generations, and simulations are
bit-for-bit reproducible across runs and machines.  A stream is identified by
an arbitrary tuple of keys (strings, ints, floats); the tuple is hashed with
BLAKE2b into a 64-bit seed for a :class:`numpy.random.Generator`.

Three paths produce keyed draws, all bit-identical to each other:

* **The oracle** (:func:`rng_for` + :func:`unit_vector`) constructs a fresh
  ``numpy.random.default_rng`` per key tuple.  It defines what every
  stream contains; the remaining library callers draw a handful of
  streams each (arrivals, topic vectors, IVF training).
* **``DirectionCache`` draws** (the module-level :data:`directions`)
  memoize keyed unit vectors and scalars whose key tuples recur and seed
  the misses of one caller (one image, or a batch of images) together
  through :meth:`DirectionCache.draw_batch`.  A finished image's batch
  also draws the image encoder's noise for that image and *parks* it:
  the cache holds the vector (or one batch of them), keyed by its
  stream's ``(dim, seed)``, and :meth:`DirectionCache.fresh_unit` /
  :meth:`DirectionCache.fresh_units` hand it over (once) instead of
  drawing it again.  A parked vector is a memo of a pure function, so
  encoding in any order, with any encoder, returns the oracle's bytes.
* **Batched streams** (:func:`rngs_for`) seed a list of key tuples
  together and yield one long-lived generator re-pointed at each
  tuple's stream in turn, for callers that need whole streams —
  ``integers``, ``random`` and ``standard_normal`` draws — rather than
  one vector per key.  Trace synthesis seeds every kept session's
  streams in one call this way.

Callers that seed many streams under one fixed key prefix hash that
prefix once: :class:`SeedPrefix` keeps the prefix's BLAKE2b state and
copies it per suffix, and both ``draw_batch`` and ``rngs_for`` take the
resulting ``int`` seed in place of a key tuple.

The last two paths rest on one replay: numpy's ``SeedSequence`` entropy
mixing and PCG64 seeding redone outside numpy, so a long-lived PCG64
can be set to the state ``PCG64(seed)`` would have without paying full
object construction per key.  The replay has two forms, chosen by how
many seeds one call brings:

* up to :data:`_BULK_SEEDS` (every serving call, which seeds at most
  :data:`_MAX_LANES`), unrolled Python generated per lane count: for
  ``n`` seeds it mixes all of them at once in one Python int holding
  ``n`` 64-bit lanes, ~2.5 µs per seed;
* above it (trace synthesis, the warm-up's ``generate_batch`` chunks),
  numpy columns of 32-bit words (:func:`_pcg64_records`), up to
  :data:`_RECORD_CHUNK` seeds per pass, for a fixed ~0.3 ms plus
  ~0.25 µs per seed.

Pointing the long-lived PCG64 at a replayed state
(:meth:`_FastStream.seek`, or :meth:`_FastStream.seek_record` for the
column replay's 32-byte records) writes the state's four 64-bit words
straight into the bit generator's C struct and clears its buffered
half-draw; each stream checks that layout once, against numpy's
``state`` setter, and seeks through that setter instead on any build
where the check fails.  ``tests/test_rng.py`` pins every path
bit-for-bit against the oracle.
"""

from __future__ import annotations

import hashlib
import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

try:
    import ctypes
except ImportError:  # pragma: no cover - ctypes-less builds
    ctypes = None  # type: ignore[assignment]

Key = Union[str, int, float, bytes]

_SEPARATOR = b"\x1f"
_SEPARATOR_STR = "\x1f"
_STR_INT = {str, int}

#: One :meth:`DirectionCache.draw_batch` item — ``(dim or None for a
#: scalar, memoize, key tuple or its precomputed int seed)`` — and its
#: result.
DrawItem = Tuple[Optional[int], bool, Union[Tuple[Key, ...], int]]
Draw = Union[np.ndarray, float]


def seed_for(*keys: Key) -> int:
    """Derive a stable 64-bit seed from a tuple of keys.

    The mapping is independent of Python's per-process ``hash()``
    randomization, so it is stable across interpreter invocations.  The
    key material is assembled into one buffer and hashed in a single call
    (identical digest to incremental updates, fewer C round-trips).  Key
    tuples made only of plain ``str`` and ``int`` — the common case — are
    joined in one call; the material is the same as the per-key path's.
    Exact types keep ``bool``, ``IntEnum`` and ``str`` subclasses on the
    per-key path, and the empty tuple keeps its empty material.
    """
    if keys and set(map(type, keys)) <= _STR_INT:
        material = (
            _SEPARATOR_STR.join(map(str, keys)) + _SEPARATOR_STR
        ).encode("utf-8")
    else:
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
        material = b"".join(parts)
    digest = hashlib.blake2b(material, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


class SeedPrefix:
    """:func:`seed_for` over a fixed key prefix, with the prefix hashed once.

    ``SeedPrefix(*prefix)(*suffix) == seed_for(*prefix, *suffix)``.  When
    the prefix and the suffix are made only of exact ``str`` and ``int``
    keys (``seed_for``'s joined path), the prefix's material is absorbed
    into a BLAKE2b state at construction and each call hashes only the
    suffix, on a copy of that state: a BLAKE2b digest does not depend on
    how its input is split across updates.  Any other key type, and an
    empty suffix, go through :func:`seed_for` itself.
    """

    __slots__ = ("_prefix", "_state")

    def __init__(self, *prefix: Key):
        self._prefix = prefix
        self._state = None
        if set(map(type, prefix)) <= _STR_INT:
            material = "".join(str(key) + _SEPARATOR_STR for key in prefix)
            self._state = hashlib.blake2b(
                material.encode("utf-8"), digest_size=8
            )

    def __call__(self, *suffix: Key) -> int:
        state = self._state
        if state is None or not suffix:
            return seed_for(*self._prefix, *suffix)
        if len(suffix) == 1 and suffix[0].__class__ is str:
            material = suffix[0] + _SEPARATOR_STR
        elif set(map(type, suffix)) <= _STR_INT:
            material = _SEPARATOR_STR.join(map(str, suffix)) + _SEPARATOR_STR
        else:
            return seed_for(*self._prefix, *suffix)
        digest = state.copy()
        digest.update(material.encode("utf-8"))
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

    Only a vector with no non-zero entry passes through unchanged; every
    other finite vector comes back with unit norm, however small.

    For 1-D float vectors the norm is ``sqrt(v.dot(v))`` — the exact
    computation ``np.linalg.norm`` performs for that case — evaluated
    without the ``linalg`` dispatch overhead, and through the array's own
    ``dot`` method (the same BLAS call as ``np.dot``, without numpy's
    array-function dispatch), so results stay bit-identical to
    ``np.linalg.norm`` on the 48-dim vectors the hot loop normalizes
    constantly.  Other shapes and dtypes go through ``np.linalg.norm``.
    :func:`normalize_rows` is the row-stack form.

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
            sq = float(vec.dot(vec))
        except RuntimeWarning:
            # Entries beyond ~1e154 overflow the dot's reduction; under
            # promoted warning filters (-W error::RuntimeWarning) numpy
            # raises before returning.  Record the overflow and continue
            # on the slow branch — inputs this extreme never occur on the
            # serving hot path, so the probe stays unguarded (and fast).
            sq = math.inf
        if 1e-280 < sq < 1e280:
            return vec / math.sqrt(sq)
        if sq == 0.0 and not vec.any():
            return vec
        # sq under/overflowed (extreme magnitudes) or is NaN (non-finite
        # entries); both are off the hot path.
        if not np.isfinite(vec).all():
            return _normalize_nonfinite(vec)
        peak = float(np.max(np.abs(vec)))
        scaled = vec / peak
        norm = peak * math.sqrt(float(scaled.dot(scaled)))
    else:
        try:
            norm = float(np.linalg.norm(vec))
        except RuntimeWarning:
            norm = math.inf
        if not math.isfinite(norm) or (norm == 0.0 and vec.any()):
            if not np.isfinite(vec).all():
                return _normalize_nonfinite(vec)
            # Finite entries whose squared sum over- or underflowed: same
            # peak-scaled two-pass as the fast path's slow branch
            # (norm(v) = peak * norm(v / peak), exact in real arithmetic).
            peak = float(np.max(np.abs(vec)))
            scaled = vec / peak
            norm = peak * float(np.linalg.norm(scaled))
    if norm == 0.0:
        return vec
    return vec / norm


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """:func:`normalize` of every row of a 2-D float array, as a new array.

    Each row's squared norm is the same ``dot(row, row)`` call
    :func:`normalize` makes, taken row by row (the BLAS dot of a
    contiguous row does not depend on where the row sits), and the stack
    is then divided by its row norms at once, so every row is
    bit-identical to ``normalize(row)``.  Rows with no non-zero entry
    pass through; other rows whose squared norm leaves the normal range
    or is not finite go through :func:`normalize` itself.
    """
    norms = []
    odd = []
    for r, row in enumerate(mat):
        try:
            sq = float(row.dot(row))
        except RuntimeWarning:  # overflow under promoted warning filters
            sq = math.inf
        if 1e-280 < sq < 1e280:
            norms.append(math.sqrt(sq))
        else:
            norms.append(1.0)
            if sq != 0.0 or row.any():
                odd.append(r)
    out = mat / np.array(norms)[:, None]
    for r in odd:
        out[r] = normalize(mat[r])
    return out


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


#: Seeds replayed together per generated function (64-bit lanes each).
_MAX_LANES = 8


def _build_raw_state_fn(n: int) -> Callable:
    """Generate a fully unrolled PCG64 seeding replay for ``n`` seeds.

    Replays SeedSequence's entropy mixing (4-word pool, two 32-bit entropy
    words — a 64-bit seed never exceeds two, and a high word of zero mixes
    identically to absent entropy) and PCG64's two-step seeding.  The
    unrolled form avoids all loop/indexing overhead on the per-draw hot
    path; bit-identity with numpy is pinned by ``tests/test_rng.py``.

    For ``n == 1`` the function is ``_pcg64_raw_state(seed) -> (state,
    inc)``.  For ``n > 1`` it takes ``n`` seeds and returns a list of
    ``n`` pairs, mixing every seed at once: one Python int holds seed
    ``j``'s 32-bit pool word in its 64-bit lane ``j``, the xor constants
    are replicated across lanes, and a 32-bit multiply never carries out
    of its lane.  Each ``>> 16`` is masked so no bits shift in from the
    lane above, and the mix step adds ``2**32`` per lane before
    subtracting so no borrow crosses a lane.  Only the 128-bit state
    assembly and the PCG multiply run per seed.
    """
    packed = n > 1
    ones = sum(1 << (64 * j) for j in range(n))
    rep = ones if packed else 1
    mask_shift = " & M" if packed else ""
    no_borrow = f" + {(1 << 32) * ones}" if packed else ""
    if packed:
        name = f"_pcg64_raw_states_{n}"
        args = ", ".join(f"s{j}" for j in range(n))
        lines = [
            f"def {name}({args}):",
            "    seed = "
            + " | ".join(f"s{j} << {64 * j}" if j else "s0" for j in range(n)),
        ]
    else:
        name = "_pcg64_raw_state"
        lines = [f"def {name}(seed):"]
    lines += [
        "    e0 = seed & M",
        "    e1 = (seed >> 32) & M",
    ]
    pool_expr = ["e0", "e1", "0", "0"]
    step = 0
    for i in range(4):
        if packed and pool_expr[i] == "0":
            # Seed-independent: fold the absent-entropy words to constants.
            v = (_HC_MIX_PRE[step] * _HC_MIX[step]) & _M32
            lines.append(f"    p{i} = {(v ^ (v >> 16)) * ones}")
        else:
            lines.append(
                f"    v = ({pool_expr[i]} ^ {_HC_MIX_PRE[step] * rep}) "
                f"* {_HC_MIX[step]} & M"
            )
            lines.append(f"    p{i} = v ^ (v >> 16{mask_shift})")
        pool_expr[i] = f"p{i}"
        step += 1
    for i_src, i_dst in _MIX_PAIRS:
        lines.append(
            f"    v = (p{i_src} ^ {_HC_MIX_PRE[step] * rep}) "
            f"* {_HC_MIX[step]} & M"
        )
        lines.append(f"    v ^= v >> 16{mask_shift}")
        lines.append(
            f"    r = (p{i_dst} * {_MIX_L} & M){no_borrow} "
            f"- (v * {_MIX_R} & M) & M"
        )
        lines.append(f"    p{i_dst} = r ^ (r >> 16{mask_shift})")
        step += 1
    for i in range(8):
        lines.append(
            f"    v = (p{i & 3} ^ {_HC_GEN_PRE[i] * rep}) "
            f"* {_HC_GEN[i]} & M"
        )
        lines.append(f"    w{i} = v ^ (v >> 16{mask_shift})")
    if not packed:
        lines += [
            "    initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2",
            "    initseq = (w5 << 96) | (w4 << 64) | (w7 << 32) | w6",
            "    inc = ((initseq << 1) | 1) & M128",
            "    state = (inc + initstate) & M128",
            f"    state = (state * {_PCG_MULT} + inc) & M128",
            "    return state, inc",
        ]
    else:
        # 64-bit halves of initstate / initseq, still one per lane.
        lines += [
            "    hs = w1 << 32 | w0",
            "    ls = w3 << 32 | w2",
            "    hq = w5 << 32 | w4",
            "    lq = w7 << 32 | w6",
        ]
        for j in range(n):
            if j == 0:
                lane = "{} & M64"
            elif j == n - 1:
                lane = f"{{}} >> {64 * j}"
            else:
                lane = f"{{}} >> {64 * j} & M64"
            seq = f"({lane.format('hq')}) << 65 | ({lane.format('lq')}) << 1"
            lines.append(f"    i{j} = ({seq} | 1) & M128")
            lines.append(
                f"    t{j} = ((({lane.format('hs')}) << 64 | "
                f"({lane.format('ls')})) + i{j}) * {_PCG_MULT} "
                f"+ i{j} & M128"
            )
        pairs = ", ".join(f"(t{j}, i{j})" for j in range(n))
        lines.append(f"    return [{pairs}]")
    namespace = {
        "M": _M32 * ones,
        "M64": (1 << 64) - 1,
        "M128": _M128,
    }
    exec("\n".join(lines), namespace)
    return namespace[name]


_RAW_STATE_FNS: Dict[int, Callable] = {}


def _raw_state_fn(n: int) -> Callable:
    """The generated replay for ``n`` seeds, built once per lane count."""
    fn = _RAW_STATE_FNS.get(n)
    if fn is None:
        fn = _RAW_STATE_FNS[n] = _build_raw_state_fn(n)
    return fn


#: (state, inc) of ``PCG64(seed)`` for a 64-bit ``seed``, replayed exactly.
_pcg64_raw_state = _raw_state_fn(1)


def _pcg64_raw_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """(state, inc) of ``PCG64(seed)`` per seed, replayed in packed chunks.

    Seeds go through the generated replay :data:`_MAX_LANES` at a time.
    """
    out: List[Tuple[int, int]] = []
    for start in range(0, len(seeds), _MAX_LANES):
        chunk = seeds[start:start + _MAX_LANES]
        if len(chunk) == 1:
            out.append(_pcg64_raw_state(chunk[0]))
        else:
            out.extend(_raw_state_fn(len(chunk))(*chunk))
    return out


# ----------------------------------------------------------------------
# Bulk seeding: the same replay over numpy columns
# ----------------------------------------------------------------------
#: One call seeding more streams than this takes the column replay
#: (:func:`_pcg64_record_rows`).  Measured crossover: the column replay
#: costs a fixed ~0.3 ms, the packed replay ~2.5 µs per seed.
_BULK_SEEDS = 100
#: Seeds per column pass, bounding the replay's temporaries (~32 KiB
#: per ``uint64`` column).
_RECORD_CHUNK = 4096

# Every constant is an explicit ``np.uint64``, so numpy 1.x and 2.x
# promote alike and no operation leaves ``uint64``.  No product or sum
# below exceeds 64 bits: the limbs and constants are 32-bit.
_U32 = np.uint64(_M32)
_U16_SHIFT = np.uint64(16)
_U31_SHIFT = np.uint64(31)
_U32_SHIFT = np.uint64(32)
_U_ONE = np.uint64(1)
_U_NO_BORROW = np.uint64(1 << 32)
_U_MIX_L = np.uint64(_MIX_L)
_U_MIX_R = np.uint64(_MIX_R)
_U_HC_MIX = tuple(zip(map(np.uint64, _HC_MIX_PRE), map(np.uint64, _HC_MIX)))
_U_HC_GEN = tuple(zip(map(np.uint64, _HC_GEN_PRE), map(np.uint64, _HC_GEN)))
#: PCG64's multiplier as four 32-bit limbs, least significant first.
_U_PCG_MULT = tuple(
    np.uint64(_PCG_MULT >> (32 * k) & _M32) for k in range(4)
)


def _hash_column(x, consts):
    """SeedSequence's ``hashmix`` of 32-bit words (a column or a scalar)."""
    pre, post = consts
    v = (x ^ pre) * post & _U32
    return v ^ (v >> _U16_SHIFT)


def _pcg64_records(seeds: Sequence[int]) -> np.ndarray:
    """State records of ``PCG64(seed)`` per seed, replayed column-wise.

    The same SeedSequence mixing and PCG64 seeding as
    :func:`_build_raw_state_fn`, with one ``uint64`` column per 32-bit
    word: seed ``j`` lives in row ``j`` of every column.  The 128-bit
    ``(initstate + inc) * mult + inc`` runs on four 32-bit limbs, with
    each 32x32-bit partial product split into halves so no column sum
    overflows.  Returns a ``(len(seeds), 32)`` ``uint8`` array whose row
    ``j`` is the little-endian ``state | inc << 128`` that
    :meth:`_FastStream.seek` writes for seed ``j``.
    """
    col = np.array(seeds, dtype=np.uint64)
    hc = iter(_U_HC_MIX)
    pool = [
        _hash_column(col & _U32, next(hc)),
        _hash_column(col >> _U32_SHIFT, next(hc)),
        # Absent entropy words mix as scalars until a cross-mix writes
        # them.
        _hash_column(np.uint64(0), next(hc)),
        _hash_column(np.uint64(0), next(hc)),
    ]
    for i_src, i_dst in _MIX_PAIRS:
        v = _hash_column(pool[i_src], next(hc))
        r = (
            (pool[i_dst] * _U_MIX_L & _U32) + _U_NO_BORROW
            - (v * _U_MIX_R & _U32)
        ) & _U32
        pool[i_dst] = r ^ (r >> _U16_SHIFT)
    w = [_hash_column(pool[i & 3], c) for i, c in enumerate(_U_HC_GEN)]
    # Limbs, least significant first: initstate = w1:w0:w3:w2 and
    # inc = (initseq << 1 | 1) with initseq = w5:w4:w7:w6.
    init = (w[2], w[3], w[0], w[1])
    seq = (w[6], w[7], w[4], w[5])
    inc = [seq[0] << _U_ONE & _U32 | _U_ONE] + [
        seq[k] << _U_ONE & _U32 | seq[k - 1] >> _U31_SHIFT
        for k in range(1, 4)
    ]
    a = []
    carry = np.uint64(0)
    for k in range(4):
        t = init[k] + inc[k] + carry
        a.append(t & _U32)
        carry = t >> _U32_SHIFT
    # (a * mult) mod 2**128, limb k = sum of a_i * m_j over i + j == k
    # (low halves) and i + j == k - 1 (high halves).
    limbs = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * _U_PCG_MULT[j]
            limbs[i + j] = limbs[i + j] + (product & _U32)
            if i + j < 3:
                limbs[i + j + 1] = limbs[i + j + 1] + (product >> _U32_SHIFT)
    out = np.empty((len(col), 8), dtype="<u4")
    carry = np.uint64(0)
    for k in range(4):
        t = limbs[k] + carry
        out[:, k] = t  # the cast keeps the low 32 bits
        carry = t >> _U32_SHIFT
        out[:, 4 + k] = inc[k]
    return out.view(np.uint8)


def _pcg64_record_rows(seeds: Sequence[int]) -> Iterator[bytes]:
    """:func:`_pcg64_records` row by row, replayed a chunk at a time.

    Each row is the 32 bytes :meth:`_FastStream.seek_record` takes; at
    most :data:`_RECORD_CHUNK` records exist at once.
    """
    for start in range(0, len(seeds), _RECORD_CHUNK):
        chunk = _pcg64_records(seeds[start:start + _RECORD_CHUNK]).tobytes()
        for offset in range(0, len(chunk), 32):
            yield chunk[offset:offset + 32]


#: A ``(state, inc)`` pair every layout check writes and reads back.
_PROBE_RAW = _pcg64_raw_state(seed_for("fast-stream-layout-probe"))
#: ``has_uint32`` and ``uinteger`` cleared: no buffered 32-bit half-draw.
_NO_HALF_DRAW = bytes(8)


def _state_views(
    bg: np.random.PCG64,
) -> Optional[Tuple[memoryview, memoryview]]:
    """Writable byte views of ``bg``'s PCG64 state, or ``None``.

    ``bg.ctypes.state_address`` points to numpy's ``pcg64_state``: a
    pointer to the ``pcg64_random_t`` holding the 128-bit ``state`` and
    ``inc``, then the ``has_uint32`` / ``uinteger`` buffer of a half-used
    64-bit draw.  The first view covers the 32 bytes of ``state`` and
    ``inc``, the second the 8 bytes of the buffer.  This layout is not
    numpy API, so it is checked before it is used:

    * both structs must lie inside ``bg``'s own object memory, so no
      probe touches memory the bit generator does not own;
    * a probe state set through the dict setter must read back as the
      little-endian bytes of ``state | inc << 128`` and of the buffer;
    * the probe written through the views, over a different state, must
      give a ``bg.state`` equal to the dict setter's and the same next
      ``standard_normal`` draws.

    Any difference — no ``ctypes``, a non-CPython object model, a build
    that emulates 128-bit math and stores the high word first — returns
    ``None``, and the caller keeps the dict setter.
    """
    if ctypes is None:
        return None
    state, inc = _PROBE_RAW
    probe = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 1,
        "uinteger": 0x9E3779B9,
    }
    probe_words = (state | inc << 128).to_bytes(32, "little")
    probe_half = (1 | 0x9E3779B9 << 32).to_bytes(8, "little")
    try:
        base = id(bg)
        end = base + type(bg).__basicsize__
        addr = bg.ctypes.state_address
        half_addr = addr + ctypes.sizeof(ctypes.c_void_p)
        if not (base <= addr and half_addr + 8 <= end):
            return None
        words_addr = ctypes.c_void_p.from_address(addr).value
        if words_addr is None or not base <= words_addr <= end - 32:
            return None
        words = memoryview(
            (ctypes.c_uint8 * 32).from_address(words_addr)
        ).cast("B")
        half = memoryview(
            (ctypes.c_uint8 * 8).from_address(half_addr)
        ).cast("B")
        gen = np.random.Generator(bg)
        bg.state = probe
        expected = bg.state
        if words.tobytes() != probe_words or half.tobytes() != probe_half:
            return None
        draws = gen.standard_normal(8)
        bg.state = {**probe, "state": {"state": 0, "inc": 1}}
        words[:] = probe_words
        half[:] = probe_half
        if bg.state != expected or not np.array_equal(
            gen.standard_normal(8), draws
        ):
            return None
    except (AttributeError, TypeError, ValueError, NotImplementedError):
        return None  # pragma: no cover - no such numpy build is known
    return words, half


class _FastStream:
    """One long-lived PCG64 generator re-pointed at keyed streams.

    Re-pointing the generator (:meth:`seek`) is ~10x cheaper than
    constructing ``default_rng`` per key, and the draws are bit-identical
    because the state set is exactly what ``PCG64(seed)`` would have.

    A seek writes the 128-bit ``state`` and ``inc`` as four 64-bit words
    straight into the bit generator's ``pcg64_random_t`` and clears its
    buffered half-draw (``has_uint32`` / ``uinteger``) in the same step,
    so a stream whose last user drew ``integers`` starts like a fresh
    ``PCG64(seed)`` too.  That costs ~0.3 µs; numpy's dict-validating
    ``state`` setter costs ~1.7 µs.  Each stream checks the word layout
    once, when it is built (:func:`_state_views`); if the check fails the
    stream seeks through the dict setter instead, with the same bytes.
    The views point into :attr:`_bg`, which the stream keeps alive; a
    stream is never copied or pickled.
    """

    def __init__(self) -> None:
        self._bg = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bg)
        views = _state_views(self._bg)
        if views is None:
            self._state_template = {
                "bit_generator": "PCG64",
                "state": {"state": 0, "inc": 0},
                "has_uint32": 0,
                "uinteger": 0,
            }
            self.seek = self._seek_dict  # type: ignore[method-assign]
            self.seek_record = (  # type: ignore[method-assign]
                self._seek_record_dict
            )
        else:
            self._words, self._half_draw = views

    def seek(self, raw: Tuple[int, int]) -> np.random.Generator:
        """Point the generator at the stream whose PCG64 state is ``raw``."""
        self._words[:] = (raw[0] | raw[1] << 128).to_bytes(32, "little")
        self._half_draw[:] = _NO_HALF_DRAW
        return self._gen

    def seek_record(self, record: bytes) -> np.random.Generator:
        """:meth:`seek` to a 32-byte state record (:func:`_pcg64_records`).

        The record is the little-endian ``state | inc << 128``, the
        bytes :meth:`seek` writes for ``raw``.
        """
        self._words[:] = record
        self._half_draw[:] = _NO_HALF_DRAW
        return self._gen

    def _seek_record_dict(self, record: bytes) -> np.random.Generator:
        """:meth:`seek_record` through numpy's ``state`` setter."""
        return self._seek_dict(
            (
                int.from_bytes(record[:16], "little"),
                int.from_bytes(record[16:], "little"),
            )
        )

    def _seek_dict(self, raw: Tuple[int, int]) -> np.random.Generator:
        """:meth:`seek` through numpy's ``state`` setter."""
        tmpl = self._state_template
        tmpl["state"]["state"] = raw[0]
        tmpl["state"]["inc"] = raw[1]
        self._bg.state = tmpl
        return self._gen

    def standard_normal(self, seed: int, dim: int) -> np.ndarray:
        return self.seek(_pcg64_raw_state(seed)).standard_normal(dim)


#: Idle streams for :func:`rngs_for`; constructing one costs about as
#: much as the oracle's ``default_rng``, so they are reused.
_STREAM_POOL: List[_FastStream] = []


def rngs_for(
    key_tuples: Sequence[Union[Tuple[Key, ...], int]],
) -> Iterator[np.random.Generator]:
    """Batched :func:`rng_for`: one stream per key tuple, in order.

    Each entry is a key tuple or its precomputed ``int`` seed
    (``seed_for(*keys)``, e.g. from a :class:`SeedPrefix`), as in
    :meth:`DirectionCache.draw_batch`.  Every tuple is hashed once and
    all seeds are replayed together: by the packed replay, or by the
    column replay a chunk at a time above :data:`_BULK_SEEDS` seeds (see
    :func:`_replayed_states`).  The iterator then yields one long-lived
    PCG64-backed generator, re-pointed at each entry's stream in turn:
    each yield starts in exactly the state ``rng_for(*keys)`` would, so
    any sequence of draws from it is bit-identical to the oracle's.
    Because the generator is shared, a stream is only valid until the
    iterator advances or is closed — draw what a key needs before
    taking the next one.  Iterators that are alive at the same time
    hold separate generators.
    """
    seeds = [
        keys if keys.__class__ is int else seed_for(*keys)
        for keys in key_tuples
    ]
    stream = _STREAM_POOL.pop() if _STREAM_POOL else _FastStream()
    try:
        states, seek = _replayed_states(stream, seeds)
        for state in states:
            yield seek(state)
    finally:
        _STREAM_POOL.append(stream)


def _replayed_states(
    stream: _FastStream, seeds: Sequence[int]
) -> Tuple[Iterable, Callable[..., np.random.Generator]]:
    """The start states of ``seeds`` and ``stream``'s seek for them.

    More than :data:`_BULK_SEEDS` seeds take the column replay, one
    state record each; fewer take the packed replay, one ``(state,
    inc)`` pair each.  Both seek to the same bytes.
    """
    if len(seeds) > _BULK_SEEDS:
        return _pcg64_record_rows(seeds), stream.seek_record
    return _pcg64_raw_states(seeds), stream.seek


def _finish_unit(vec: np.ndarray) -> np.ndarray:
    """Normalize a raw gaussian draw exactly like :func:`unit_vector`.

    The in-place divide is safe (``vec`` is freshly drawn and owned) and
    bit-identical to the reference's out-of-place ``vec / norm``.
    """
    norm = math.sqrt(float(vec.dot(vec)))
    if norm == 0.0:  # pragma: no cover - probability zero
        vec[0] = 1.0
        norm = 1.0
    vec /= norm
    return vec


def fast_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """:func:`unit_vector` with the norm taken as ``sqrt(dot(v, v))``.

    Bit-identical to :func:`unit_vector`: that is the computation
    ``np.linalg.norm`` performs for a 1-D float vector, without its
    dispatch overhead.
    """
    return _finish_unit(rng.standard_normal(dim))


class DirectionCache:
    """Memoized, fast-path synthesis of keyed unit vectors and scalars.

    Keyed directions (natural/idiosyncratic/fingerprint/set-drift streams,
    vocabulary surface tokens, …) are pure functions of their key tuples,
    yet recur across generations.  This cache (a) memoizes draws whose
    keys recur and
    (b) synthesizes cache misses through :class:`_FastStream` instead of a
    fresh ``default_rng`` per key.  Both layers are bit-identical to the
    reference path.  :meth:`draw_batch` takes every draw one caller needs
    (memoized or fresh, vector or scalar) and seeds them together.

    Fresh vectors can also be *parked* (:meth:`park`, :meth:`park_rows`)
    by the caller that drew them ahead of time for their eventual
    consumer; :meth:`fresh_unit` and :meth:`fresh_units` return each
    once, for its own ``(dim, seed)`` only.

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
        self._parked: Optional[Tuple[Tuple[int, int], np.ndarray]] = None
        self._parked_rows: Dict[Tuple[int, int], np.ndarray] = {}
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
        self._memoize(self._units, cache_key, vec)
        return vec

    def _memoize(self, table: Dict, key: object, value: Draw) -> None:
        """Store one draw, dropping the whole memo at ``max_entries``."""
        if len(table) >= self.max_entries:
            table.clear()
        table[key] = value

    def units(
        self, dim: int, key_tuples: Sequence[Tuple[Key, ...]]
    ) -> np.ndarray:
        """Batched :meth:`unit`: one ``(n, dim)`` row per key tuple.

        Cached rows are gathered straight from the memo; misses are
        seeded together by :meth:`draw_batch`.
        """
        rows = self.draw_batch([(dim, True, keys) for keys in key_tuples])
        return np.array(rows, dtype=float).reshape(len(rows), dim)

    def draw_batch(self, items: Sequence[DrawItem]) -> List[Draw]:
        """Many keyed draws, seeded in one packed replay.

        Each item is ``(dim, memoize, keys)``: ``dim`` is a vector
        dimension for ``unit_vector(rng_for(*keys), dim)`` or ``None`` for
        the scalar ``float(rng_for(*keys).standard_normal())``;
        ``memoize`` selects the memo (as :meth:`unit`) or a fresh,
        uncached draw (as :meth:`fresh_unit`).  ``keys`` is a key tuple
        or its precomputed ``int`` seed (``seed_for(*keys)``, e.g. from a
        :class:`SeedPrefix`).  Every key tuple is hashed once, memo hits
        are served, and all remaining seeds are replayed together: up to
        :data:`_MAX_LANES` (every serving call) in one generated packed
        call, more through :func:`_replayed_states`.  The draws then run
        in item order.  A memoized key repeated within the batch is drawn
        once and counted as a hit the second time, as sequential calls
        would count it.  Results are bit-identical to the one-at-a-time
        methods.
        """
        out: List[Draw] = [None] * len(items)  # type: ignore[list-item]
        units, scalars = self._units, self._scalars
        todo: List[Tuple[int, Optional[int], bool, int]] = []
        seeds: List[int] = []
        first: Dict[Tuple[Optional[int], int], int] = {}
        repeats: List[Tuple[int, int]] = []
        for i, (dim, memoize, keys) in enumerate(items):
            seed = keys if keys.__class__ is int else seed_for(*keys)
            if memoize:
                memo_key = (dim, seed)
                cached = (
                    scalars.get(seed) if dim is None else units.get(memo_key)
                )
                if cached is not None:
                    self.hits += 1
                    out[i] = cached
                    continue
                j = first.get(memo_key)
                if j is not None:
                    self.hits += 1
                    repeats.append((i, j))
                    continue
                self.misses += 1
                first[memo_key] = i
            todo.append((i, dim, memoize, seed))
            seeds.append(seed)
        n = len(seeds)
        if n == 0:
            return out
        seek = self._stream.seek
        if n == 1:
            states: Iterable = (_pcg64_raw_state(seeds[0]),)
        elif n <= _MAX_LANES:
            states = _raw_state_fn(n)(*seeds)
        else:
            states, seek = _replayed_states(self._stream, seeds)
        for (i, dim, memoize, seed), state in zip(todo, states):
            gen = seek(state)
            if dim is None:
                out[i] = value = float(gen.standard_normal())
                if memoize:
                    self._memoize(scalars, seed, value)
            else:
                out[i] = vec = _finish_unit(gen.standard_normal(dim))
                if memoize:
                    vec.flags.writeable = False
                    self._memoize(units, (dim, seed), vec)
        for i, j in repeats:
            out[i] = out[j]
        return out

    # ------------------------------------------------------------------
    # Non-memoized fast draws (unique keys, e.g. per-image noise)
    # ------------------------------------------------------------------
    def fresh_unit(
        self, dim: int, *keys: Key, seed: Optional[int] = None
    ) -> np.ndarray:
        """Fast-path ``unit_vector(rng_for(*keys), dim)`` without caching.

        For keys that never recur (per-image sampling noise keyed by unique
        image ids) memoization would only leak memory; this still skips the
        per-key generator construction.  ``seed`` replaces ``keys`` with
        their precomputed ``seed_for(*keys)``.  A vector parked for this
        ``(dim, seed)`` is returned (and dropped) instead of a new draw.
        """
        if seed is None:
            seed = seed_for(*keys)
        vec = self._take_parked(dim, seed)
        if vec is None:
            vec = _finish_unit(self._stream.standard_normal(seed, dim))
        return vec

    def fresh_units(self, dim: int, seeds: Sequence[int]) -> List[np.ndarray]:
        """Batched :meth:`fresh_unit` over precomputed seeds.

        Parked vectors are handed over; the other seeds are drawn
        together in one :meth:`draw_batch` (unmemoized).
        """
        out: List[np.ndarray] = [None] * len(seeds)  # type: ignore[list-item]
        todo: List[int] = []
        for i, seed in enumerate(seeds):
            vec = self._take_parked(dim, seed)
            if vec is None:
                todo.append(i)
            else:
                out[i] = vec
        if todo:
            drawn = self.draw_batch([(dim, False, seeds[i]) for i in todo])
            for i, vec in zip(todo, drawn):
                out[i] = vec  # type: ignore[assignment]
        return out

    def _take_parked(self, dim: int, seed: int) -> Optional[np.ndarray]:
        """The vector parked for ``(dim, seed)``, dropped; else ``None``."""
        parked = self._parked
        if parked is not None and parked[0] == (dim, seed):
            self._parked = None
            return parked[1]
        if self._parked_rows:
            return self._parked_rows.pop((dim, seed), None)
        return None

    def park(self, dim: int, seed: int, vec: np.ndarray) -> None:
        """Hold ``vec``, a fresh draw of ``seed``, for :meth:`fresh_unit`.

        ``vec`` must be ``fresh_unit(dim, seed=seed)``'s result, owned by
        no one else.  Parking replaces whatever was parked before.
        """
        self._parked = ((dim, seed), vec)
        if self._parked_rows:
            self._parked_rows = {}

    def park_rows(
        self, dim: int, seeds: Sequence[int], rows: Sequence[np.ndarray]
    ) -> None:
        """:meth:`park` for a batch: ``rows[i]`` is the draw of ``seeds[i]``.

        Parking replaces whatever was parked before, so at most one
        batch is held at a time.  One row goes through :meth:`park`.
        """
        if len(seeds) == 1:
            self.park(dim, seeds[0], rows[0])
            return
        self._parked = None
        self._parked_rows = {
            (dim, seed): row for seed, row in zip(seeds, rows)
        }

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._units.clear()
        self._scalars.clear()
        self._parked = None
        self._parked_rows = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._units) + len(self._scalars)


#: Process-wide direction cache every fast-path consumer threads through.
directions = DirectionCache()

