"""Tiered vector cache: fp16-precision scan tier, hot tier, cold tier.

A :class:`~repro.core.cache.VectorCache` keeps every embedding in one
preallocated float64 matrix — 4 GB at 10M entries of dim 50, before the
IVF blocks double it.  Past a million entries the cache is memory-bound,
not compute-bound (ROADMAP: "Ten-million-entry cache tier"), so this
module splits storage across two tiers behind the same cache surface:

* **Scan tier** — the IVF index's packed per-cell blocks, rounded to
  fp16 precision (``IVFParams.block_dtype``) and decoded at write:
  fp16 precision, f32 storage, so the coarse scan is a plain f32
  matvec per probed cell with no per-probe decode, at 4 bytes per
  element.  Every live entry is scannable, and the exact re-rank
  (``IVFParams.rerank`` shortlist) keeps returned similarities exact.
* **Hot tier** — a small float64 row store for the frequently-hit
  entries.  Shortlist re-ranks against hot rows are RAM reads.
* **Cold tier** — a file of exact float64 rows written at a logical
  append cursor (:class:`ColdStore`) holding every entry's embedding.
  Shortlist re-ranks against cold rows are positioned ``pread`` gathers.

Promotion is driven by access counts: an entry's ``promote_hits``-th
recorded hit copies its exact row from the cold file into the hot store,
demoting a victim chosen by an eviction-registry policy
(``tier_policy``) when the hot store is full.  Placement never changes
*results* — hot rows are bit-exact copies of cold rows, so retrieval is
residency-independent and only the modelled latency
(:meth:`TieredVectorCache.scan_entries`) sees the tier split.

Snapshots are **block-free and hot-free**: the columnar entry state, the
tier maps, and the IVF structure are captured, but neither the quantized
blocks nor the hot rows are — both are derived from the cold file, which
is the persistent medium.  ``restore`` rewinds the cold append cursor to
the snapshot's position and streams the file once to refill blocks and
hot rows, so a rebooted replica reproduces its pre-restart hit rate from
the snapshot plus the on-disk cold file (the warm-rejoin path PR 7's
``Snapshot`` machinery drives).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.ann import BLOCK_DTYPES, IVFIndex, IVFParams, IVFState
from repro.core.cache import (
    RETRIEVAL_SECONDS_PER_ENTRY,
    CacheEntry,
    EVICTION_POLICIES,
    make_eviction_policy,
)
from repro.core.journal import SnapCounter

#: Modelled cost of one cold-row fetch, in entry-scan units.  A cold
#: re-rank row is a random ~400-byte ``pread`` against the cold file
#: (one 4 KiB page of I/O when uncached); an in-RAM entry scan is a
#: ~400-byte sequential read of the embedding matrix.  The ratio feeds
#: the scheduler's retrieval-latency model — it shapes modelled latency
#: only, never results.
COLD_FETCH_UNITS = 64

#: Rows per streamed chunk during restore refill and bulk build
#: (64k rows × dim 50 × 8 B = ~26 MB resident per pass).
_STREAM_CHUNK_ROWS = 65_536


@dataclass(frozen=True)
class TieredCacheConfig:
    """Knobs of the tiered cache (``MoDMConfig.cache_tiering``).

    ``hot_capacity`` — float64 rows kept RAM-resident (0 = auto:
    ``capacity // 8``, at least 1).  ``promote_hits`` — recorded hits at
    which a cold entry is promoted.  ``tier_policy`` — eviction-registry
    policy choosing the demotion victim when the hot store is full
    (``"utility"`` demotes the fewest-hit entry, keeping the heavy
    hitters resident).  ``block_dtype`` — precision of the IVF scan
    blocks (``"fp16"``: decoded at write, fp16 precision, f32 storage —
    no decode per probe, at the same 4 bytes per element as ``"fp32"``;
    the exact re-rank keeps similarities exact).  ``shortlist`` —
    exact-re-rank width (``IVFParams.rerank`` floor; wider catches fp16
    near-tie misordering).  ``cold_dir`` — directory for the cold row file
    (``None`` = anonymous temp file: dropped on process exit, which
    still supports in-process warm restarts; a real directory makes the
    cold tier durable for cross-process warm starts).
    """

    hot_capacity: int = 0
    promote_hits: int = 1
    tier_policy: str = "utility"
    block_dtype: str = "fp16"
    shortlist: int = 8
    cold_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.hot_capacity < 0:
            raise ValueError("hot_capacity must be >= 0 (0 = auto)")
        if self.promote_hits < 1:
            raise ValueError("promote_hits must be >= 1")
        if self.tier_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown tier_policy {self.tier_policy!r}; "
                f"available: {sorted(EVICTION_POLICIES)}"
            )
        if self.block_dtype not in BLOCK_DTYPES:
            raise ValueError(
                f"unknown block_dtype {self.block_dtype!r}; "
                f"available: {list(BLOCK_DTYPES)}"
            )
        if self.shortlist < 1:
            raise ValueError("shortlist must be >= 1")

    def resolved_hot_capacity(self, capacity: int) -> int:
        if self.hot_capacity:
            return min(self.hot_capacity, capacity)
        return max(1, capacity // 8)


class ColdStore:
    """Float64 row file written at an append cursor, read by ``pread``.

    All I/O is positioned (``os.pwrite`` / ``os.pread``) on the file's
    raw descriptor: there is no buffered-file layer, so appends are
    visible to every read path without a flush, and no call moves a
    shared file offset.  Reads use ``pread`` rather than an
    ``np.memmap`` view: on Linux, faulting a page of a file-backed
    mapping drags in a fault-around window (~64 KiB) that
    ``MADV_RANDOM`` does not suppress, so a replay phase's scattered
    shortlist gathers would pin most of a multi-GiB cold file into the
    process's resident set.  ``pread`` serves the same bytes through the
    page cache without mapping them, keeping resident memory bounded by
    live data structures instead of access history.

    Rows are **not** immutable: the append cursor is logical, and
    :meth:`rewind` moves it without truncating, so the next append
    overwrites whatever row sits at the cursor.  ``clear()`` on the
    owning cache rewinds to 0 and ``restore`` rewinds to the snapshot's
    cursor.  The invariant block-free snapshots rely on is narrower: a
    snapshot taken with the cursor at ``r`` can rebuild every row it
    references from the first ``r`` rows of the file *until the cursor
    is next rewound below ``r`` and rows are appended over them*.  A
    snapshot older than a rewind can therefore alias rows written after
    it (ROADMAP, "cold-store aliasing").

    ``path=None`` backs the store with an anonymous temp file (deleted
    on close/exit); a real path reattaches on construction so a fresh
    process can warm-restart from the file plus a snapshot.
    """

    def __init__(self, dim: int, path: Optional[str] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = dim
        self._path = path
        self._row_bytes = dim * 8
        # Unbuffered file objects own the descriptor's lifetime (closed
        # on ``close()`` or collection); every read and write goes
        # through ``self._fd`` with an explicit offset.
        if path is None:
            self._file = tempfile.TemporaryFile(buffering=0)
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode, buffering=0)
        self._fd = self._file.fileno()
        self._rows = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def rows(self) -> int:
        """Logical append-cursor position (rows readable)."""
        return self._rows

    def append_rows(self, rows: np.ndarray) -> int:
        """Append a (n, dim) block; returns the first row's index."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._dim:
            raise ValueError(
                f"rows must have shape (n, {self._dim}), "
                f"got {rows.shape}"
            )
        start = self._rows
        data = memoryview(rows).cast("B")
        offset = start * self._row_bytes
        while data:
            written = os.pwrite(self._fd, data, offset)
            data = data[written:]
            offset += written
        self._rows += rows.shape[0]
        return start

    def append_row(self, row: np.ndarray) -> int:
        """Append one row; returns its row index."""
        return self.append_rows(row[None, :])

    def _short_read(self, row: int, got: int, want: int) -> IOError:
        return IOError(
            f"cold store short read at row {row}: {got} of {want} bytes"
        )

    def read_row(self, row: int) -> np.ndarray:
        """One row as a fresh float64 array."""
        if not 0 <= row < self._rows:
            raise IndexError(f"row {row} out of range [0, {self._rows})")
        rb = self._row_bytes
        buf = os.pread(self._fd, rb, int(row) * rb)
        if len(buf) != rb:
            raise self._short_read(int(row), len(buf), rb)
        return np.frombuffer(buf, dtype=np.float64).copy()

    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gathered rows as a fresh (n, dim) float64 array.

        One ``pread`` per row, joined into a single buffer that is
        decoded once.
        """
        idx = np.asarray(rows, dtype=np.int64).tolist()
        if not idx:
            return np.empty((0, self._dim), dtype=np.float64)
        lo = min(idx)
        hi = max(idx)
        if lo < 0 or hi >= self._rows:
            raise IndexError(
                f"rows out of range [0, {self._rows}): [{lo}, {hi}]"
            )
        rb = self._row_bytes
        parts = []
        for row in idx:
            part = os.pread(self._fd, rb, row * rb)
            if len(part) != rb:
                raise self._short_read(row, len(part), rb)
            parts.append(part)
        return (
            np.frombuffer(b"".join(parts), dtype=np.float64)
            .reshape(len(idx), self._dim)
            .copy()
        )

    def chunks(
        self, chunk_rows: int = _STREAM_CHUNK_ROWS
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, rows)`` sequentially over the extent.

        One ``pread`` per chunk into a fresh array — bounded resident
        memory (one chunk), unlike a memmap pass whose touched pages all
        count against the process's resident set.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        for start in range(0, self._rows, chunk_rows):
            count = min(chunk_rows, self._rows - start)
            out = np.empty((count, self._dim), dtype=np.float64)
            want = count * self._row_bytes
            got = os.preadv(self._fd, [out], start * self._row_bytes)
            if got != want:
                raise self._short_read(start, got, want)
            yield start, out

    def rewind(self, rows: int) -> None:
        """Move the logical cursor to ``rows`` (snapshot restore).

        Works in both directions: back over an abandoned suffix after
        an in-process restore, or forward on a freshly reattached file
        whose on-disk extent the snapshot vouches for.  Never truncates;
        the file must physically hold ``rows`` rows.
        """
        if rows < 0:
            raise ValueError("rows must be >= 0")
        size = os.fstat(self._fd).st_size
        if rows * self._row_bytes > size:
            raise ValueError(
                f"cold store holds {size // self._row_bytes} rows, "
                f"cannot rewind to {rows}"
            )
        self._rows = rows

    def close(self) -> None:
        self._file.close()


class TieredEntry:
    """Lightweight live view of one cached entry (columnar-backed).

    The tiered cache stores no per-entry objects — 10M ``CacheEntry``
    instances would cost more RAM than the embeddings they describe —
    so retrieval returns these views: a pinned ``entry_id`` plus
    properties reading the cache's columns.  Views are ephemeral; after
    the slot is recycled the cache's staleness checks (``entry_id``
    match) make a stale view inert rather than wrong.
    """

    __slots__ = ("_cache", "entry_id", "slot")

    def __init__(self, cache: "TieredVectorCache", entry_id: int, slot: int):
        self._cache = cache
        self.entry_id = entry_id
        self.slot = slot

    @property
    def payload(self):
        return self._cache._payloads[self.slot]

    @property
    def image(self):
        """Alias matching :class:`~repro.core.cache.CacheEntry.image`."""
        return self._cache._payloads[self.slot]

    @property
    def embedding(self) -> np.ndarray:
        return self._cache._row_copy(self.slot)

    @property
    def inserted_at(self) -> float:
        return float(self._cache._inserted_at[self.slot])

    @property
    def hits(self) -> int:
        return int(self._cache._hits[self.slot])

    @property
    def last_hit_at(self) -> Optional[float]:
        value = self._cache._last_hit_at[self.slot]
        return None if math.isnan(value) else float(value)

    @property
    def hot(self) -> bool:
        """True when this entry's row is RAM-resident."""
        return bool(self._cache._hot_row[self.slot] >= 0)


class _SlotRows:
    """Matrix-shaped adapter serving slot rows from the tier split.

    The :class:`IVFIndex` reads its owning cache's matrix only through
    fancy gathers (``matrix[slots]``, ``matrix[slot]``, ``.shape``), so
    the tiered cache hands it this object instead of a real array: hot
    slots resolve to the RAM row store, cold slots to cold-file
    ``pread`` gathers (counted in ``cache.cold_reads``).  Rows are exact float64 either
    way — the re-rank result cannot depend on residency.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: "TieredVectorCache"):
        self._cache = cache

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._cache._capacity, self._cache._embed_dim)

    def __getitem__(self, key):
        cache = self._cache
        if isinstance(key, (int, np.integer)):
            return cache._row_copy(int(key))
        slots = np.asarray(key, dtype=np.int64)
        hot_rows = cache._hot_row[slots]
        cold = np.flatnonzero(hot_rows < 0)
        if cold.size == 0:
            return cache._hot_store[hot_rows]
        cache.cold_reads += cold.size
        cold_rows = cache._cold.read_rows(cache._cold_row[slots[cold]])
        if cold.size == slots.size:
            return cold_rows
        # One gather serves every hot row; cold positions (hot row -1)
        # pick up a placeholder row that the cold gather overwrites.
        out = cache._hot_store[hot_rows]
        out[cold] = cold_rows
        return out


@dataclass
class TieredCacheState:
    """Opaque snapshot of a :class:`TieredVectorCache`.

    Deliberately block-free and hot-free: ``index_state`` is captured
    with ``include_blocks=False`` and the hot rows are not captured at
    all — both are rebuilt from the cold file on restore (``cold_rows``
    pins the append cursor the snapshot is valid against).
    """

    capacity: int
    embed_dim: int
    hot_capacity: int
    policy_name: str
    backend: str
    entry_ids: np.ndarray
    inserted_at: np.ndarray
    hits: np.ndarray
    last_hit_at: np.ndarray
    cold_row_of: np.ndarray
    hot_row_of: np.ndarray
    payloads: List[object]
    live: np.ndarray
    cursor: int
    n_live: int
    embedding_sum: np.ndarray
    hot_free: List[int]
    tier_policy_state: object
    cold_rows: int
    index_state: IVFState
    last_inserted_id: Optional[int]
    ids_value: int
    insertions: int
    evictions: int
    lookups: int
    cold_reads: int
    promotions: int
    demotions: int


class TieredVectorCache:
    """Fixed-capacity tiered cache behind the ``VectorCache`` surface.

    Same retrieval/mutation/snapshot contract as
    :class:`~repro.core.cache.VectorCache` (the serving engine cannot
    tell them apart), but storage is columnar — parallel arrays instead
    of per-entry objects — and split across the hot row store, the
    quantized IVF blocks, and the on-disk cold file (module docstring).

    Capacity eviction is a FIFO ring (``policy`` must be ``"fifo"``):
    with inserts landing on consecutive slots, the oldest entry is
    always at the ring cursor, so eviction is O(1) with no bookkeeping
    structure at 10M scale.  The eviction-policy *registry* drives tier
    demotion instead (``tiering.tier_policy``).
    """

    def __init__(
        self,
        capacity: int,
        embed_dim: int,
        tiering: TieredCacheConfig,
        policy: str = "fifo",
        backend: str = "ivf",
        ann: Optional[IVFParams] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if policy != "fifo":
            raise ValueError(
                "tiered cache requires policy='fifo' (capacity "
                f"eviction is a FIFO ring), got {policy!r}"
            )
        if backend != "ivf":
            raise ValueError(
                "tiered cache requires backend='ivf' (the quantized "
                f"scan tier is the IVF blocks), got {backend!r}"
            )
        self._capacity = capacity
        self._embed_dim = embed_dim
        self._policy_name = policy
        self._backend = backend
        self._tiering = tiering  # snap: derived (immutable config)
        self._hot_capacity = tiering.resolved_hot_capacity(capacity)
        # Columnar entry state — no per-entry objects at 10M scale.
        self._entry_ids = np.full(capacity, -1, dtype=np.int64)
        self._inserted_at = np.zeros(capacity, dtype=np.float64)
        self._hits = np.zeros(capacity, dtype=np.int64)
        self._last_hit_at = np.full(capacity, np.nan, dtype=np.float64)
        self._cold_row = np.full(capacity, -1, dtype=np.int64)
        self._hot_row = np.full(capacity, -1, dtype=np.int64)
        self._payloads: List[object] = [None] * capacity
        self._live = np.zeros(capacity, dtype=bool)
        self._cursor = 0  # FIFO ring position: next insert/evict slot
        self._n_live = 0
        self._embedding_sum = np.zeros(embed_dim)
        # Memoized 1-row coarse_centroids() (see ``VectorCache``).
        # snap: derived (recomputed from embedding_sum on first read)
        self._sketch_memo: Optional[np.ndarray] = None
        # Running total of the live payloads' ``size_bytes``.
        # snap: derived (recounted from the payloads on restore)
        self._storage_bytes = 0
        # Hot tier: exact f64 rows for the frequently-hit entries.
        # snap: derived (refilled from the cold file on restore)
        self._hot_store = np.zeros((self._hot_capacity, embed_dim))
        self._hot_free: List[int] = list(
            range(self._hot_capacity - 1, -1, -1)
        )
        # Slot-indexed views of the hot-resident entries — the
        # ``entries`` sequence the demotion policy's victim scan reads.
        # snap: derived (rebuilt from hot_row_of on restore)
        self._hot_view: List[Optional[TieredEntry]] = [None] * capacity
        self._tier_policy = make_eviction_policy(tiering.tier_policy)
        cold_path = None
        if tiering.cold_dir is not None:
            os.makedirs(tiering.cold_dir, exist_ok=True)
            cold_path = os.path.join(tiering.cold_dir, "cold-rows.f64")
        self._cold = ColdStore(embed_dim, path=cold_path)
        # snap: derived (stateless adapter over the tier split)
        self._rows = _SlotRows(self)
        base = ann if ann is not None else IVFParams()
        self._index = IVFIndex(
            self._rows,
            self._live,
            replace(
                base,
                block_dtype=tiering.block_dtype,
                rerank=max(base.rerank, tiering.shortlist),
            ),
        )
        self._ids = SnapCounter()
        self.last_inserted: Optional[TieredEntry] = None
        self.insertions = 0
        self.evictions = 0
        self.lookups = 0
        self.cold_reads = 0
        self.promotions = 0
        self.demotions = 0
        # Tier-event hook the serving engine binds to journal
        # promotions/demotions: called as (now, kind, slot, entry_id)
        # with kind "promote" | "demote".
        # snap: derived (owner wiring, rebound after restore)
        self.on_tier_event: Optional[
            Callable[[float, str, int, int], None]
        ] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy_name

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def index(self) -> IVFIndex:
        return self._index

    @property
    def tiering(self) -> TieredCacheConfig:
        return self._tiering

    @property
    def hot_capacity(self) -> int:
        return self._hot_capacity

    @property
    def hot_count(self) -> int:
        """Hot-resident entries (rows in use in the hot store)."""
        return self._hot_capacity - len(self._hot_free)

    @property
    def cold_store(self) -> ColdStore:
        return self._cold

    def __len__(self) -> int:
        return self._n_live

    def _view(self, slot: int) -> TieredEntry:
        return TieredEntry(self, int(self._entry_ids[slot]), slot)

    def _row_copy(self, slot: int) -> np.ndarray:
        """Exact f64 row of a live slot (hot read or cold fetch)."""
        hot_row = int(self._hot_row[slot])
        if hot_row >= 0:
            return self._hot_store[hot_row].copy()
        self.cold_reads += 1
        return self._cold.read_row(int(self._cold_row[slot]))

    def entries(self) -> List[TieredEntry]:
        """Views of the live entries, oldest (lowest id) first."""
        slots = np.flatnonzero(self._live)
        order = np.argsort(self._entry_ids[slots], kind="stable")
        return [self._view(int(s)) for s in slots[order]]

    def storage_bytes(self) -> int:
        """Total payload storage (uses each payload's ``size_bytes``).

        A running total kept on insert, evict, restore and clear, as in
        :meth:`VectorCache.storage_bytes`.
        """
        return self._storage_bytes

    def scan_entries(self) -> int:
        """Modelled entries touched per query, tier-aware.

        On top of the IVF model (coarse centroids + probed block rows),
        every shortlist candidate whose row is cold costs a page fault,
        modelled as :data:`COLD_FETCH_UNITS` entry-scans.  The expected
        cold fraction of the shortlist is the cold fraction of the
        cache (hit skew keeps hot entries hot, so this is pessimistic —
        which is the right bias for an admission-latency model).
        """
        n = self._n_live
        if n == 0:
            return 0
        cold_frac = max(0.0, min(1.0, 1.0 - self.hot_count / n))
        if self._index.trained:
            base = self._index.scan_entries(n)
            penalty = math.ceil(
                self._index.params.rerank * cold_frac * COLD_FETCH_UNITS
            )
            return base + penalty
        # Untrained: the exact fallback gathers every live row, cold
        # ones through cold-file preads.
        return n + math.ceil(n * cold_frac * (COLD_FETCH_UNITS - 1))

    def retrieval_latency_s(self) -> float:
        """Scheduler-side latency of one similarity scan at current size."""
        return self.scan_entries() * RETRIEVAL_SECONDS_PER_ENTRY

    def coarse_centroids(self) -> Optional[np.ndarray]:
        """Semantic sketch of the contents (see ``VectorCache``)."""
        coarse = self._index.coarse_centroids()
        if coarse is not None:
            return coarse
        sketch = self._sketch_memo
        if sketch is None:
            single = self.centroid()
            if single is None:
                return None
            sketch = self._sketch_memo = single[None, :]
            sketch.flags.writeable = False
        return sketch

    def centroid(self) -> Optional[np.ndarray]:
        """Mean of the live embeddings (running sum), or ``None``."""
        n = self._n_live
        if n == 0:
            return None
        return self._embedding_sum / n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        payload,
        embedding: np.ndarray,
        now: float,
    ) -> Optional[CacheEntry]:
        """Insert a payload; returns the evicted entry, if any.

        New entries start cold: the exact row is appended to the cold
        file and only promoted into the hot store once it earns
        ``promote_hits`` recorded hits.
        """
        if embedding.shape != (self._embed_dim,):
            raise ValueError(
                f"embedding must have shape ({self._embed_dim},), "
                f"got {embedding.shape}"
            )
        slot = self._cursor
        evicted: Optional[CacheEntry] = None
        if self._live[slot]:
            evicted = self._evict_slot(slot)
        emb = np.asarray(embedding, dtype=np.float64)
        entry_id = next(self._ids)
        self._entry_ids[slot] = entry_id
        self._inserted_at[slot] = now
        self._hits[slot] = 0
        self._last_hit_at[slot] = np.nan
        self._cold_row[slot] = self._cold.append_row(emb)
        self._payloads[slot] = payload
        self._storage_bytes += getattr(payload, "size_bytes", 0)
        self._live[slot] = True
        self._n_live += 1
        self._embedding_sum += emb
        self._sketch_memo = None
        self._index.add(slot, emb)
        self._cursor = (slot + 1) % self._capacity
        self.last_inserted = self._view(slot)
        self.insertions += 1
        return evicted

    def _evict_slot(self, slot: int) -> CacheEntry:
        """Drop the entry at ``slot``, returning it detached.

        The detached :class:`CacheEntry` owns a real embedding copy —
        callers (journal eviction records, tests) keep using it after
        the slot and its cold/hot rows are recycled.
        """
        emb = self._row_copy(slot)
        last_hit = self._last_hit_at[slot]
        entry = CacheEntry(
            entry_id=int(self._entry_ids[slot]),
            payload=self._payloads[slot],
            embedding=emb,
            inserted_at=float(self._inserted_at[slot]),
            hits=int(self._hits[slot]),
            last_hit_at=(
                None if math.isnan(last_hit) else float(last_hit)
            ),
        )
        self._index.remove(slot, emb)
        hot_row = int(self._hot_row[slot])
        if hot_row >= 0:
            view = self._hot_view[slot]
            self._hot_row[slot] = -1
            self._hot_free.append(hot_row)
            self._hot_view[slot] = None
            self._tier_policy.on_evict(slot, view)
        self._entry_ids[slot] = -1
        self._cold_row[slot] = -1
        self._storage_bytes -= getattr(entry.payload, "size_bytes", 0)
        self._payloads[slot] = None
        self._live[slot] = False
        self._n_live -= 1
        self._embedding_sum -= emb
        self._sketch_memo = None
        self.evictions += 1
        return entry

    def record_hit(self, entry, now: float) -> None:
        """Count a confirmed hit; promote on the ``promote_hits``-th.

        Stale views (slot recycled since retrieval) are inert, matching
        ``VectorCache.record_hit``'s tombstone behaviour — except that
        the columnar cache also skips the per-entry stat writes a
        detached ``CacheEntry`` would have absorbed harmlessly.
        """
        slot = getattr(entry, "slot", None)
        if (
            slot is None
            or not self._live[slot]
            or int(self._entry_ids[slot]) != entry.entry_id
        ):
            return
        self._hits[slot] += 1
        self._last_hit_at[slot] = now
        if self._hot_row[slot] >= 0:
            self._tier_policy.on_hit(slot, self._hot_view[slot])
        elif self._hits[slot] >= self._tiering.promote_hits:
            self._promote(slot, now)

    def _promote(self, slot: int, now: float) -> None:
        """Copy a cold entry's exact row into the hot store."""
        if not self._hot_free:
            victim = self._tier_policy.victim(self._hot_view)
            self._demote(victim, now)
        hot_row = self._hot_free.pop()
        self.cold_reads += 1
        self._hot_store[hot_row] = self._cold.read_row(
            int(self._cold_row[slot])
        )
        self._hot_row[slot] = hot_row
        view = self._view(slot)
        self._hot_view[slot] = view
        self._tier_policy.on_insert(slot, view)
        self.promotions += 1
        if self.on_tier_event is not None:
            self.on_tier_event(
                now, "promote", slot, int(self._entry_ids[slot])
            )

    def _demote(self, slot: int, now: float) -> None:
        """Drop a hot entry's RAM row (the cold copy is authoritative)."""
        view = self._hot_view[slot]
        hot_row = int(self._hot_row[slot])
        self._hot_row[slot] = -1
        self._hot_free.append(hot_row)
        self._hot_view[slot] = None
        self._tier_policy.on_evict(slot, view)
        self.demotions += 1
        if self.on_tier_event is not None:
            self.on_tier_event(
                now, "demote", slot, int(self._entry_ids[slot])
            )

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        chunk_source: Callable[[], Iterable[np.ndarray]],
        now: float,
    ) -> int:
        """Stream ``(n, dim)`` embedding chunks into an empty cache.

        The 10M-entry ingest path: each chunk is appended to the cold
        file and registered columnarly (payloads ``None``, zero hits),
        then the IVF index bulk-builds by re-streaming the cold file —
        peak memory is one chunk plus the quantized blocks, never the
        full float64 corpus.  Returns the number of rows loaded.
        """
        if self._n_live or self.insertions or self._cold.rows:
            raise ValueError("bulk_load requires an empty, unused cache")
        total = 0
        for chunk in chunk_source():
            chunk = np.ascontiguousarray(chunk, dtype=np.float64)
            if chunk.ndim != 2 or chunk.shape[1] != self._embed_dim:
                raise ValueError(
                    f"chunks must have shape (n, {self._embed_dim}), "
                    f"got {chunk.shape}"
                )
            n = chunk.shape[0]
            if n == 0:
                continue
            if total + n > self._capacity:
                raise ValueError(
                    f"bulk_load overflows capacity {self._capacity}"
                )
            start_row = self._cold.append_rows(chunk)
            slots = np.arange(total, total + n)
            self._entry_ids[slots] = np.arange(
                self._ids.value, self._ids.value + n, dtype=np.int64
            )
            self._ids.value += n
            self._inserted_at[slots] = now
            self._cold_row[slots] = np.arange(
                start_row, start_row + n, dtype=np.int64
            )
            self._live[slots] = True
            self._embedding_sum += chunk.sum(axis=0)
            self._sketch_memo = None
            total += n
        self._n_live = total
        self._cursor = total % self._capacity
        self.insertions += total
        if total >= max(2, self._index.nlist):
            self._index.build_from_chunks(
                lambda: (
                    (
                        np.arange(
                            start,
                            start + rows.shape[0],
                            dtype=np.int64,
                        ),
                        rows,
                    )
                    for start, rows in self._cold.chunks()
                ),
                total,
            )
        return total

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _exact_best(
        self, query_unit: np.ndarray
    ) -> Tuple[int, float]:
        """Exact fallback scan (untrained index / empty probe set)."""
        slots = np.flatnonzero(self._live)
        sims = self._rows[slots] @ query_unit
        best = int(np.argmax(sims))
        return int(slots[best]), float(sims[best])

    def retrieve(self, query: np.ndarray):
        """Most-similar entry view and its exact cosine similarity.

        Same contract as ``VectorCache.retrieve``: ``(None, 0.0)`` on an
        empty cache or zero query; hit counting is the scheduler's call
        via :meth:`record_hit`.
        """
        self._check_query(query)
        self.lookups += 1
        if self._n_live == 0:
            return None, 0.0
        qnorm = math.sqrt(float(np.dot(query, query)))
        if qnorm == 0.0:
            return None, 0.0
        query_unit = query / qnorm
        if self._index.ready(self._n_live):
            found = self._index.search(query_unit)
            if found is not None:
                slot, sim = found
                return self._view(slot), sim
            # Every probed cell empty/tombstoned: exact fallback.
        slot, sim = self._exact_best(query_unit)
        return self._view(slot), sim

    def retrieve_topk(self, query: np.ndarray, k: int):
        """The ``k`` most-similar live entries, best first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        self._check_query(query)
        self.lookups += 1
        n_live = self._n_live
        if n_live == 0:
            return []
        qnorm = math.sqrt(float(np.dot(query, query)))
        if qnorm == 0.0:
            return []
        query_unit = query / qnorm
        if self._index.ready(n_live):
            found = self._index.search_topk(query_unit, k)
            if found:
                return [
                    (self._view(slot), sim) for slot, sim in found
                ]
            # Every probed cell empty/tombstoned: exact fallback.
        slots = np.flatnonzero(self._live)
        sims = self._rows[slots] @ query_unit
        k_eff = min(k, n_live)
        if k_eff < sims.shape[0]:
            top = np.argpartition(sims, -k_eff)[-k_eff:]
        else:
            top = np.arange(sims.shape[0])
        top = top[np.argsort(sims[top])[::-1]][:k_eff]
        return [
            (self._view(int(slots[i])), float(sims[i])) for i in top
        ]

    def retrieve_batch(self, queries: np.ndarray):
        """Best match per row of ``queries``.

        Candidate gathering is per-query on the tiered layout (hot/cold
        row resolution), so the batch routes through the single-query
        path — bit-identical to sequential calls by construction.
        """
        if queries.ndim != 2 or queries.shape[1] != self._embed_dim:
            raise ValueError(
                f"queries must have shape (n, {self._embed_dim}), "
                f"got {queries.shape}"
            )
        return [
            self.retrieve(queries[i]) for i in range(queries.shape[0])
        ]

    def _check_query(self, query: np.ndarray) -> None:
        if query.shape != (self._embed_dim,):
            raise ValueError(
                f"query must have shape ({self._embed_dim},), "
                f"got {query.shape}"
            )

    # ------------------------------------------------------------------
    # Snapshot / restore / clear (fault-tolerance surface)
    # ------------------------------------------------------------------
    def snapshot(self) -> TieredCacheState:
        """Capture the columnar state; blocks and hot rows stay out.

        Side-effect-free.  The snapshot is valid against the cold file's
        first ``cold_rows`` rows — with a durable ``cold_dir`` that pair
        survives the process; with an anonymous cold file it supports
        in-process warm restarts (the cluster layer's kill/rejoin).
        """
        return TieredCacheState(
            capacity=self._capacity,
            embed_dim=self._embed_dim,
            hot_capacity=self._hot_capacity,
            policy_name=self._policy_name,
            backend=self._backend,
            entry_ids=self._entry_ids.copy(),
            inserted_at=self._inserted_at.copy(),
            hits=self._hits.copy(),
            last_hit_at=self._last_hit_at.copy(),
            cold_row_of=self._cold_row.copy(),
            hot_row_of=self._hot_row.copy(),
            payloads=list(self._payloads),
            live=self._live.copy(),
            cursor=self._cursor,
            n_live=self._n_live,
            embedding_sum=self._embedding_sum.copy(),
            hot_free=list(self._hot_free),
            tier_policy_state=self._tier_policy.state(),
            cold_rows=self._cold.rows,
            index_state=self._index.snapshot_state(
                include_blocks=False
            ),
            last_inserted_id=(
                None
                if self.last_inserted is None
                else self.last_inserted.entry_id
            ),
            ids_value=self._ids.value,
            insertions=self.insertions,
            evictions=self.evictions,
            lookups=self.lookups,
            cold_reads=self.cold_reads,
            promotions=self.promotions,
            demotions=self.demotions,
        )

    def restore(self, state: TieredCacheState) -> None:
        """Adopt a snapshot; refill blocks and hot rows from the cold file.

        The cold append cursor rewinds to the snapshot's position —
        rows appended after the capture are logically abandoned and will
        be overwritten by post-restore inserts.  One sequential
        streaming pass over the cold extent rebuilds the quantized
        blocks (via :meth:`IVFIndex.refill_rows`) and the hot store, so
        peak restore memory is one chunk, not the corpus.
        """
        if (
            state.capacity != self._capacity
            or state.embed_dim != self._embed_dim
            or state.hot_capacity != self._hot_capacity
            or state.policy_name != self._policy_name
            or state.backend != self._backend
        ):
            raise ValueError(
                "tiered snapshot shape mismatch: snapshot is "
                f"(capacity={state.capacity}, dim={state.embed_dim}, "
                f"hot={state.hot_capacity}, "
                f"policy={state.policy_name!r}, "
                f"backend={state.backend!r}); cache is "
                f"(capacity={self._capacity}, dim={self._embed_dim}, "
                f"hot={self._hot_capacity}, "
                f"policy={self._policy_name!r}, "
                f"backend={self._backend!r})"
            )
        self._entry_ids[:] = state.entry_ids
        self._inserted_at[:] = state.inserted_at
        self._hits[:] = state.hits
        self._last_hit_at[:] = state.last_hit_at
        self._cold_row[:] = state.cold_row_of
        self._hot_row[:] = state.hot_row_of
        self._payloads = list(state.payloads)
        self._live[:] = state.live
        self._storage_bytes = sum(
            getattr(self._payloads[int(s)], "size_bytes", 0)
            for s in np.flatnonzero(self._live)
        )
        self._cursor = state.cursor
        self._n_live = state.n_live
        # Order-dependent float accumulation: adopt, never recompute.
        self._embedding_sum[:] = state.embedding_sum
        self._sketch_memo = None
        self._hot_free = list(state.hot_free)
        self._tier_policy = make_eviction_policy(
            self._tiering.tier_policy
        )
        self._tier_policy.restore_state(state.tier_policy_state)
        self._cold.rewind(state.cold_rows)
        self._index.restore_state(state.index_state)
        self._refill_from_cold()
        self._hot_view = [None] * self._capacity
        for slot in np.flatnonzero(self._hot_row >= 0):
            self._hot_view[int(slot)] = self._view(int(slot))
        self.last_inserted = None
        if state.last_inserted_id is not None:
            match = np.flatnonzero(
                self._live
                & (self._entry_ids == state.last_inserted_id)
            )
            if match.size:
                self.last_inserted = self._view(int(match[0]))
        self._ids.value = state.ids_value
        self.insertions = state.insertions
        self.evictions = state.evictions
        self.lookups = state.lookups
        self.cold_reads = state.cold_reads
        self.promotions = state.promotions
        self.demotions = state.demotions

    def _refill_from_cold(self) -> None:
        """Stream the cold extent once, refilling blocks + hot rows.

        Live slots are matched to stream positions through their
        (sorted, unique) cold rows; tombstoned block rows stay zero —
        the probe drops them before they can influence any result.
        """
        live_slots = np.flatnonzero(self._live)
        if live_slots.size == 0:
            return
        order = np.argsort(self._cold_row[live_slots], kind="stable")
        slots_sorted = live_slots[order]
        cold_sorted = self._cold_row[slots_sorted]
        for start, rows in self._cold.chunks():
            stop = start + rows.shape[0]
            lo = int(np.searchsorted(cold_sorted, start, side="left"))
            hi = int(np.searchsorted(cold_sorted, stop, side="left"))
            if lo == hi:
                continue
            slots = slots_sorted[lo:hi]
            emb = rows[cold_sorted[lo:hi] - start]
            hot_rows = self._hot_row[slots]
            hot = hot_rows >= 0
            if hot.any():
                self._hot_store[hot_rows[hot]] = emb[hot]
            self._index.refill_rows(slots, emb)

    def clear(self) -> None:
        """Cold restart: drop every entry, keep counter positions.

        Mirrors ``VectorCache.clear``: the id counter and cumulative
        traffic counters persist, and the IVF index keeps its RNG
        stream position.  The cold append cursor rewinds to zero — a
        cold-started replica refills the file from the front, exactly
        like a fresh cache would.
        """
        self._entry_ids[:] = -1
        self._inserted_at[:] = 0.0
        self._hits[:] = 0
        self._last_hit_at[:] = np.nan
        self._cold_row[:] = -1
        self._hot_row[:] = -1
        self._payloads = [None] * self._capacity
        self._live[:] = False
        self._cursor = 0
        self._n_live = 0
        self._embedding_sum[:] = 0.0
        self._sketch_memo = None
        self._storage_bytes = 0
        self._hot_free = list(range(self._hot_capacity - 1, -1, -1))
        self._hot_view = [None] * self._capacity
        self._tier_policy = make_eviction_policy(
            self._tiering.tier_policy
        )
        self._cold.rewind(0)
        self._index.clear()
        self.last_inserted = None

    def snapshot_entries(
        self, state: TieredCacheState
    ) -> List[tuple]:
        """``(entry_id, payload, embedding, inserted_at)`` per live
        entry of a snapshot, ascending entry id (the cache-migration
        surface).

        The snapshot is block-free, so exact embeddings come from this
        cache's cold file: every row the snapshot references sits below
        its ``cold_rows`` cursor, and the file outlives a simulated
        crash, so the dead replica's rows stay readable for survivors to
        adopt.  Those rows are overwritten only after the cursor is
        rewound below them (``clear`` or ``restore``) and rows are
        appended again — see :class:`ColdStore`.
        """
        slots = np.flatnonzero(state.live)
        order = np.argsort(state.entry_ids[slots], kind="stable")
        out: List[tuple] = []
        for slot in slots[order]:
            slot = int(slot)
            out.append(
                (
                    int(state.entry_ids[slot]),
                    state.payloads[slot],
                    self._cold.read_row(int(state.cold_row_of[slot])),
                    float(state.inserted_at[slot]),
                )
            )
        return out


class TieredImageCache(TieredVectorCache):
    """Tiered variant of :class:`~repro.core.cache.ImageCache`."""
