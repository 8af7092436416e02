"""Tiered vector cache: a residency layer over the columnar cache.

:class:`~repro.core.cache.VectorCache` keeps every row in one float64
matrix — 4 GB at 10M entries of dim 50, before the IVF blocks double
it.  Past a million entries the cache is memory-bound, not
compute-bound (ROADMAP: "Ten-million-entry cache tier"), so
:class:`TieredVectorCache` subclasses it and changes only where a row
lives; the columns, query path, sketches and snapshot code are the
base class's:

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

Snapshots are **block-free and hot-free**: the columns, the tier maps
(:class:`TierState`) and the IVF structure are captured, but neither the
quantized blocks nor the hot rows are — both are derived from the cold
file, which is the persistent medium.  Cold rows are append-only: no
``clear`` or ``restore`` moves the append cursor back, so every row a
snapshot references stays as it was written.  ``restore`` checks that
the file holds the snapshot's extent and streams it once to refill
blocks and hot rows, so a rebooted replica reproduces its pre-restart
hit rate from the snapshot plus the on-disk cold file.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.ann import BLOCK_DTYPES, IVFParams
from repro.core.cache import (
    EVICTION_POLICIES,
    VectorCache,
    VectorCacheState,
    make_eviction_policy,
)

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


class ColdExtentError(ValueError):
    """A snapshot references more cold rows than its cold file holds.

    A tiered cache's snapshot is valid only against the first
    ``TierState.cold_rows`` rows of its cold file.  Restoring it into a
    cache whose file is shorter — for instance a fresh fleet with
    ``cold_dir=None``, whose anonymous cold files start empty — cannot
    be exact.  :meth:`ColdStore.check_extent` raises this error, and
    ``Snapshot.restore`` raises it through :func:`check_cold_extents`
    before it installs any state.
    """


class ColdWriterError(ColdExtentError):
    """Another writer appended to a cold file since this store's last
    append: its cursor no longer marks the file's end.

    Appending anyway would write over that writer's rows, so
    :meth:`ColdStore.append_rows` raises this instead and writes
    nothing.
    """


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

    Rows are append-only: the cursor only moves forward, and a store
    opened on an existing file starts at the file's end.  Every row
    below a snapshot's ``cold_rows`` therefore keeps the bytes it was
    written with, whatever the owning :class:`TieredVectorCache` clears,
    restores or appends afterwards, and however many caches reattach
    the same file one after another.  Two stores open on one path at
    once are caught on the second writer's next append: each append
    first checks (``fstat``) that the file still holds exactly as many
    whole rows as this store's cursor and raises
    :class:`ColdWriterError`, writing nothing, when another store has
    appended since.  A partial last row left by a crash mid-append is
    not counted, so a reattached store writes over it.  Nothing locks
    the file, so two *processes* appending in the instant between one's
    check and its write can still collide.

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
        # Reattaching a file appends after the rows already in it.
        self._rows = os.fstat(self._fd).st_size // self._row_bytes

    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def rows(self) -> int:
        """Append-cursor position (rows readable)."""
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
        # Whole rows only: a torn last row (a crash mid-append) is not
        # another writer's, and this append writes over it.
        held = os.fstat(self._fd).st_size // self._row_bytes
        if held != start:
            raise ColdWriterError(
                f"cold file {self._path or '(anonymous)'} holds {held} "
                f"whole rows, but this store's cursor is at row {start}: "
                "another writer appended to it; not writing over its rows"
            )
        offset = start * self._row_bytes
        data = memoryview(rows).cast("B")
        while data:
            written = os.pwrite(self._fd, data, offset)
            data = data[written:]
            offset += written
        self._rows += rows.shape[0]
        return start

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
        self, chunk_rows: int = _STREAM_CHUNK_ROWS, first: int = 0
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start_row, rows)`` sequentially over the extent from
        row ``first`` on.

        One ``pread`` per chunk into a fresh array — bounded resident
        memory (one chunk), unlike a memmap pass whose touched pages all
        count against the process's resident set.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        for start in range(first, self._rows, chunk_rows):
            count = min(chunk_rows, self._rows - start)
            out = np.empty((count, self._dim), dtype=np.float64)
            want = count * self._row_bytes
            got = os.preadv(self._fd, [out], start * self._row_bytes)
            if got != want:
                raise self._short_read(start, got, want)
            yield start, out

    def check_extent(self, rows: int) -> None:
        """Raise :class:`ColdExtentError` unless the file physically
        holds ``rows`` rows."""
        size = os.fstat(self._fd).st_size
        if rows * self._row_bytes > size:
            raise ColdExtentError(
                f"cold store holds {size // self._row_bytes} rows, "
                f"snapshot needs {rows}"
            )

    def close(self) -> None:
        self._file.close()


class _SlotRows:
    """Matrix-shaped adapter serving slot rows from the tier split.

    The :class:`~repro.core.ann.IVFIndex` and the exact fallback scan
    read rows only through fancy gathers (``rows[slots]``,
    ``rows[slot]``, ``.shape``), so the tiered cache hands them this
    object instead of a real matrix: hot slots resolve to the RAM row
    store, cold slots to cold-file ``pread`` gathers (counted in
    ``cache.cold_reads``).  Rows are exact float64 either way — the
    re-rank result cannot depend on residency.
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
            return cache._row(int(key))
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
class TierState:
    """The tiered cache's part of a snapshot (``VectorCacheState.rows``).

    Deliberately hot-free: the hot rows are not captured (and the IVF
    state is captured with ``include_blocks=False``) — both are rebuilt
    from the cold file on restore; ``cold_rows`` pins the append cursor
    the snapshot is valid against.
    """

    cold_row_of: np.ndarray
    hot_row_of: np.ndarray
    hot_free: List[int]
    tier_policy_state: object
    cold_rows: int
    cold_reads: int
    promotions: int
    demotions: int


class TieredVectorCache(VectorCache):
    """:class:`~repro.core.cache.VectorCache` whose rows live in tiers.

    The columns, the query path, the sketches and the snapshot code are
    the base class's; this subclass supplies where a row lives (the hot
    row store, the quantized IVF blocks and the on-disk cold file —
    module docstring), promotion and demotion, :meth:`bulk_load`, and
    the block-free snapshot refill.  Capacity eviction is the base
    class's FIFO ring (``policy`` must be ``"fifo"``); the
    eviction-policy registry drives tier demotion instead
    (``tiering.tier_policy``).  Beyond the cache contract it offers
    ``bulk_load``, the ``on_tier_event`` journal hook, the
    ``promotions``/``demotions``/``cold_reads`` counters, and
    ``hot_capacity``, ``hot_count`` and ``cold_store``.
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
        base = ann if ann is not None else IVFParams()
        super().__init__(
            capacity,
            embed_dim,
            policy,
            backend,
            replace(
                base,
                block_dtype=tiering.block_dtype,
                rerank=max(base.rerank, tiering.shortlist),
            ),
        )
        self._tiering = tiering  # snap: derived (immutable config)
        # snap: derived (from tiering; checked as part of the shape)
        self._hot_capacity = tiering.resolved_hot_capacity(capacity)
        self._cold_row = np.full(capacity, -1, dtype=np.int64)
        self._hot_row = np.full(capacity, -1, dtype=np.int64)
        # Entry id of each hot-resident slot, -1 elsewhere — the column
        # the demotion policy's victim scan reads.
        # snap: derived (rebuilt from hot_row_of on restore)
        self._hot_ids = np.full(capacity, -1, dtype=np.int64)
        # Hot tier: exact f64 rows for the frequently-hit entries.
        # snap: derived (refilled from the cold file on restore)
        self._hot_store = np.zeros((self._hot_capacity, embed_dim))
        self._hot_free: List[int] = list(
            range(self._hot_capacity - 1, -1, -1)
        )
        self._tier_policy = make_eviction_policy(tiering.tier_policy)
        cold_path = None
        if tiering.cold_dir is not None:
            os.makedirs(tiering.cold_dir, exist_ok=True)
            cold_path = os.path.join(tiering.cold_dir, "cold-rows.f64")
        self._cold = ColdStore(embed_dim, path=cold_path)
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

    # The tracer in ``perfbench/tracing.py`` wraps these names on each
    # class's own ``__dict__``, so tiered calls are bound here to land in
    # the tiering layer.
    retrieve = VectorCache.retrieve
    retrieve_batch = VectorCache.retrieve_batch
    insert = VectorCache.insert
    record_hit = VectorCache.record_hit
    clear = VectorCache.clear

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Row store: hot rows, cold file
    # ------------------------------------------------------------------
    def _init_rows(self) -> Tuple[_SlotRows, None]:
        # snap: derived (stateless adapter over the tier split)
        self._rows = _SlotRows(self)
        return self._rows, None

    def _row(self, slot: int) -> np.ndarray:
        """Exact f64 row of a live slot (hot copy or cold fetch)."""
        hot_row = int(self._hot_row[slot])
        if hot_row >= 0:
            return self._hot_store[hot_row].copy()
        self.cold_reads += 1
        return self._cold.read_row(int(self._cold_row[slot]))

    def _store_row(self, slot: int, embedding: np.ndarray) -> None:
        """New entries start cold: the exact row is appended to the
        cold file and promoted only once it earns ``promote_hits``."""
        self._cold_row[slot] = self._cold.append_rows(embedding[None, :])

    def _evict(self, slot: int):
        """Base eviction, then the slot's hot row (if any) is freed."""
        entry = super()._evict(slot)
        if self._hot_row[slot] >= 0:
            self._release_hot(slot)
        return entry

    def _exact_scan(
        self, query_unit: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact fallback (untrained index / empty probe set): gather
        the live rows, cold ones through ``pread``."""
        slots = np.flatnonzero(self._live)
        return slots, self._rows[slots] @ query_unit

    def _exact_batch(self, queries: np.ndarray):
        """Rows resolve per query on the tiered layout, so an untrained
        batch runs :meth:`retrieve` per row too."""
        return [self.retrieve(query) for query in queries]

    def _snapshot_row(self, state, slot: int) -> np.ndarray:
        """Exact row of a snapshot entry, from this cache's cold file.

        Every row the snapshot references sits below its ``cold_rows``
        cursor, the file outlives a simulated crash, and cold rows are
        append-only (:class:`ColdStore`), so a dead replica's rows stay
        readable, unchanged, for survivors to adopt.
        """
        return self._cold.read_row(int(state.rows.cold_row_of[slot]))

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------
    def _on_hit(
        self, slot: int, entry_id: int, hits: int, now: float
    ) -> None:
        """Promote on the ``promote_hits``-th recorded hit."""
        if self._hot_row[slot] >= 0:
            self._tier_policy.on_hit(slot, entry_id, hits)
        elif hits >= self._tiering.promote_hits:
            self._promote(slot, now)

    def _promote(self, slot: int, now: float) -> None:
        """Copy a cold entry's exact row into the hot store."""
        if not self._hot_free:
            self._demote(self._tier_policy.victim(self._hot_ids), now)
        hot_row = self._hot_free.pop()
        self.cold_reads += 1
        self._hot_store[hot_row] = self._cold.read_row(
            int(self._cold_row[slot])
        )
        self._hot_row[slot] = hot_row
        entry_id = self._entry_ids.item(slot)
        self._hot_ids[slot] = entry_id
        self._tier_policy.on_insert(slot, entry_id, self._hits.item(slot))
        self.promotions += 1
        if self.on_tier_event is not None:
            self.on_tier_event(now, "promote", slot, entry_id)

    def _demote(self, slot: int, now: float) -> None:
        """Drop a hot entry's RAM row (the cold copy is authoritative)."""
        self._release_hot(slot)
        self.demotions += 1
        if self.on_tier_event is not None:
            self.on_tier_event(
                now, "demote", slot, self._entry_ids.item(slot)
            )

    def _release_hot(self, slot: int) -> None:
        self._hot_free.append(int(self._hot_row[slot]))
        self._hot_row[slot] = -1
        self._hot_ids[slot] = -1
        self._tier_policy.on_evict(slot)

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
        if self._n_live or self.insertions:
            raise ValueError("bulk_load requires an empty, unused cache")
        # A reattached cold file already holds rows: this load's rows
        # start at its end, and slot ``s`` lives at row ``first + s``.
        first = self._cold.rows
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
                            start - first,
                            start - first + rows.shape[0],
                            dtype=np.int64,
                        ),
                        rows,
                    )
                    for start, rows in self._cold.chunks(first=first)
                ),
                total,
            )
        return total

    # ------------------------------------------------------------------
    # Snapshot / restore / clear
    # ------------------------------------------------------------------
    # Bodies like the base class's, written out here so the
    # snapshot-coverage analyzer follows this class's row hooks.
    def snapshot(self) -> VectorCacheState:
        """Capture the columns and tier maps; blocks and hot rows stay
        out.  Side-effect-free; valid against the cold file's first
        ``cold_rows`` rows (with a durable ``cold_dir`` that pair
        survives the process; an anonymous cold file supports in-process
        warm restarts, the cluster layer's kill/rejoin)."""
        return self._capture(self._snapshot_rows(), blocks=False)

    def restore(self, state: VectorCacheState) -> None:
        """Adopt a snapshot, then refill blocks and hot rows from the
        cold file (:meth:`_restore_rows`)."""
        self._adopt(state)
        self._restore_rows(state.rows)

    def _shape(self) -> Dict[str, object]:
        return dict(super()._shape(), hot=self._hot_capacity)

    def _snapshot_rows(self) -> TierState:
        return TierState(
            cold_row_of=self._cold_row.copy(),
            hot_row_of=self._hot_row.copy(),
            hot_free=list(self._hot_free),
            tier_policy_state=self._tier_policy.state(),
            cold_rows=self._cold.rows,
            cold_reads=self.cold_reads,
            promotions=self.promotions,
            demotions=self.demotions,
        )

    def _restore_rows(self, tier: TierState) -> None:
        """The cold file must hold the snapshot's ``cold_rows``; the
        append cursor stays where it is, so rows appended after the
        capture are never written over.  One sequential streaming pass
        over the live rows' extent rebuilds the quantized blocks (via
        :meth:`IVFIndex.refill_rows`) and the hot store, so peak restore
        memory is one chunk, not the corpus."""
        self._cold_row[:] = tier.cold_row_of
        self._hot_row[:] = tier.hot_row_of
        self._hot_ids[:] = np.where(self._hot_row >= 0, self._entry_ids, -1)
        self._hot_free = list(tier.hot_free)
        self._tier_policy = make_eviction_policy(self._tiering.tier_policy)
        self._tier_policy.restore_state(tier.tier_policy_state)
        self.cold_reads = tier.cold_reads
        self.promotions = tier.promotions
        self.demotions = tier.demotions
        self._cold.check_extent(tier.cold_rows)
        self._refill_from_cold()

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
        for start, rows in self._cold.chunks(first=int(cold_sorted[0])):
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

    def _clear_rows(self) -> None:
        """Drop the tier maps; the cold rows stay.  A cold-started
        replica appends after them, so snapshots taken before the clear
        still read their rows back."""
        self._cold_row[:] = -1
        self._hot_row[:] = -1
        self._hot_ids[:] = -1
        self._hot_free = list(range(self._hot_capacity - 1, -1, -1))
        self._tier_policy = make_eviction_policy(self._tiering.tier_policy)


def check_cold_extents(
    cache: object, states: Iterable[Optional[VectorCacheState]]
) -> None:
    """Raise :class:`ColdExtentError` if a state needs cold rows that
    ``cache``'s file lacks.

    Restore paths call this for every cache state they will install (or
    keep for a later warm restart) before they touch any state.  Flat
    caches, and states of ``None``, always pass.
    """
    if isinstance(cache, TieredVectorCache):
        for state in states:
            if state is not None:
                cache.cold_store.check_extent(state.rows.cold_rows)
