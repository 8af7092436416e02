"""Image and latent caches: one columnar cache core.

The MoDM cache stores *final images* plus their CLIP image embeddings — a
model-agnostic representation retrievable by any model family (§3.1,
§5.5), scanned by cosine similarity and maintained as a FIFO sliding
window by default (§5.4).  LRU and the Nirvana-style utility eviction
the paper argues against are available through the eviction-policy
registry.

:class:`VectorCache` is the one cache implementation: per-slot columns
read through :class:`CacheEntry` views, one query path (the exact scan,
or the IVF index of :mod:`repro.core.ann` for million-entry caches),
running sketches and one snapshot format.  Its rows sit in one dense
float64 matrix; :class:`~repro.core.tiering.TieredVectorCache` is the
same cache with its rows split across a hot store and a ``pread`` cold
file.

:class:`LatentCache` models what Nirvana stores instead: per-image stacks of
intermediate latents that are heavier (~2.5 MB vs ~1.4 MB) and only usable
by the model that produced them.
"""

from __future__ import annotations

import collections
import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.core.ann import IVFIndex, IVFParams, IVFState, RETRIEVAL_BACKENDS
from repro.core.journal import SnapCounter
from repro.diffusion.latent import CachedLatent, SyntheticImage

#: Measured retrieval latency: 0.05 s against 100k cached embeddings (§5.2),
#: scaling linearly with occupancy.
RETRIEVAL_SECONDS_PER_ENTRY = 0.05 / 100_000

PayloadT = TypeVar("PayloadT")


class CacheEntry(Generic[PayloadT]):
    """Live view of one cached entry: ``(cache, entry_id, slot)``.

    The cache stores no per-entry objects — at 10M entries they would
    cost more RAM than the embeddings they describe — so retrieval hands
    out these views, whose properties read the cache's columns.  Views
    are ephemeral: once the slot is recycled, ``record_hit`` sees the
    slot's new entry id and ignores the view, so a stale view is inert
    rather than wrong.  ``insert`` returns the entry it evicted as an
    :class:`EvictedEntry`, whose fields stay readable after the slot is
    reused.
    """

    __slots__ = ("_cache", "entry_id", "slot")

    def __init__(self, cache, entry_id: int, slot: int):
        self._cache = cache
        self.entry_id = entry_id
        self.slot = slot

    @property
    def payload(self) -> PayloadT:
        return self._cache._payloads[self.slot]

    image = payload  # image caches: the payload is the image

    @property
    def embedding(self) -> np.ndarray:
        return self._cache._row(self.slot)

    @property
    def inserted_at(self) -> float:
        return float(self._cache._inserted_at[self.slot])

    @property
    def hits(self) -> int:
        return int(self._cache._hits[self.slot])


@dataclass
class EvictedEntry(Generic[PayloadT]):
    """An evicted entry's fields, copied out before ``insert`` reuses
    its slot; named as on :class:`CacheEntry`."""

    entry_id: int
    slot: int
    payload: PayloadT
    embedding: np.ndarray
    inserted_at: float
    hits: int


# ----------------------------------------------------------------------
# Eviction policies
# ----------------------------------------------------------------------
class EvictionPolicy:
    """Decides which slot a full cache vacates next.

    Implementations keep their own bookkeeping keyed by ``(entry_id,
    slot)`` and invalidate lazily: a reference is stale once the slot's
    entry-id column no longer holds its id, which is detected on access,
    so no operation ever scans or removes from the middle of a container.
    """

    def on_insert(self, slot: int, entry_id: int, hits: int) -> None:
        """Record a freshly inserted (or promoted) entry."""

    def on_hit(self, slot: int, entry_id: int, hits: int) -> None:
        """Record a confirmed cache hit against a live entry."""

    def on_evict(self, slot: int) -> None:
        """Forget the entry the cache just removed from ``slot``."""

    def victim(self, entry_ids: np.ndarray) -> int:
        """Slot to evict next; ``entry_ids`` maps slot -> live entry id
        (-1 where no entry this policy tracks lives)."""
        raise NotImplementedError

    def state(self):
        """Opaque bookkeeping snapshot (None for stateless policies)."""
        return None

    def restore_state(self, state) -> None:
        """Adopt a bookkeeping snapshot produced by :meth:`state`."""
        assert state is None


#: Registry of eviction policies selectable by name (``config.cache_policy``).
EVICTION_POLICIES: Dict[str, Type[EvictionPolicy]] = {}


def register_eviction_policy(name: str):
    """Class decorator adding an :class:`EvictionPolicy` to the registry."""

    def decorate(cls: Type[EvictionPolicy]) -> Type[EvictionPolicy]:
        EVICTION_POLICIES[name] = cls
        return cls

    return decorate


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate a registered policy; raises on unknown names."""
    try:
        cls = EVICTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{tuple(sorted(EVICTION_POLICIES))}"
        ) from None
    return cls()


@register_eviction_policy("fifo")
class FifoEviction(EvictionPolicy):
    """Sliding window (§5.4): evict the oldest insertion.

    A cache evicts FIFO through its ring cursor and never consults this
    class; it picks tier demotions (``TieredCacheConfig.tier_policy``).
    A :class:`collections.deque` of ``(entry_id, slot)`` pairs, oldest at
    the left.  Stale pairs are lazy tombstones popped on the way to the
    next victim — every operation is O(1) amortized.
    """

    def __init__(self) -> None:
        self._queue: collections.deque = collections.deque()

    def on_insert(self, slot: int, entry_id: int, hits: int) -> None:
        self._queue.append((entry_id, slot))

    def victim(self, entry_ids: np.ndarray) -> int:
        while self._queue:
            entry_id, slot = self._queue[0]
            if entry_ids[slot] != entry_id:
                self._queue.popleft()
                continue
            return slot
        raise RuntimeError("fifo policy asked for a victim on empty cache")

    def state(self):
        return list(self._queue)

    def restore_state(self, state) -> None:
        self._queue = collections.deque(state)


@register_eviction_policy("lru")
class LruEviction(EvictionPolicy):
    """Evict the least recently *used* entry (hit or insert).

    An ``OrderedDict`` keyed by slot, most recent at the right; hits
    ``move_to_end`` in O(1).
    """

    def __init__(self) -> None:
        self._order: "collections.OrderedDict[int, int]" = (
            collections.OrderedDict()
        )

    def on_insert(self, slot: int, entry_id: int, hits: int) -> None:
        self._order[slot] = entry_id
        self._order.move_to_end(slot)

    def on_hit(self, slot: int, entry_id: int, hits: int) -> None:
        if self._order.get(slot) == entry_id:
            self._order.move_to_end(slot)

    def on_evict(self, slot: int) -> None:
        self._order.pop(slot, None)

    def victim(self, entry_ids: np.ndarray) -> int:
        for slot, entry_id in self._order.items():
            if entry_ids[slot] == entry_id:
                return slot
        raise RuntimeError("lru policy asked for a victim on empty cache")

    def state(self):
        return list(self._order.items())

    def restore_state(self, state) -> None:
        self._order = collections.OrderedDict(state)


@register_eviction_policy("utility")
class UtilityEviction(EvictionPolicy):
    """Evict the entry with the fewest hits, oldest breaking ties.

    The Nirvana-style alternative §5.4 ablates.  A min-heap of
    ``(hits, entry_id, slot)`` keys; every hit pushes an updated key and
    the outdated one becomes a lazy tombstone, so eviction is O(log n)
    amortized instead of an O(n) scan.  ``_current`` holds each slot's
    authoritative key; whenever stale keys outnumber live ones the heap
    is compacted, bounding it at O(live entries) even on hit-heavy runs
    with rare evictions.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._current: Dict[int, Tuple[int, int]] = {}

    def on_insert(self, slot: int, entry_id: int, hits: int) -> None:
        self._current[slot] = (hits, entry_id)
        heapq.heappush(self._heap, (hits, entry_id, slot))
        if len(self._heap) > 2 * len(self._current) + 16:
            self._heap = [
                (h, e, s) for s, (h, e) in self._current.items()
            ]
            heapq.heapify(self._heap)

    # A hit pushes the entry's new key exactly as an insert does.
    on_hit = on_insert

    def on_evict(self, slot: int) -> None:
        self._current.pop(slot, None)

    def victim(self, entry_ids: np.ndarray) -> int:
        while self._heap:
            hits, entry_id, slot = self._heap[0]
            if self._current.get(slot) != (hits, entry_id):
                heapq.heappop(self._heap)
                continue
            return slot
        raise RuntimeError(
            "utility policy asked for a victim on empty cache"
        )

    def state(self):
        return (list(self._heap), dict(self._current))

    def restore_state(self, state) -> None:
        heap, current = state
        self._heap = list(heap)
        self._current = dict(current)


# ----------------------------------------------------------------------
# Vector cache
# ----------------------------------------------------------------------
class VectorCache(Generic[PayloadT]):
    """Fixed-capacity columnar cache with cosine-similarity retrieval.

    Embeddings live in a preallocated matrix so retrieval is one matrix-
    vector product — mirroring the paper's GPU-resident embedding store
    (100k embeddings fit in 0.29 GB; retrieval takes 0.05 s).  The best
    match is a masked ``argmax`` over live slots, O(n) instead of the
    O(n log n) full sort, which keeps the scan at the paper's 0.05 s /
    100k-entry budget (§5.2).  Past it, ``backend="ivf"`` scans only the
    ``nprobe`` nearest coarse cells per query, with an exact re-rank.

    ``policy`` selects eviction from :data:`EVICTION_POLICIES`:
    ``"fifo"`` implements the sliding window of §5.4, ``"lru"`` evicts the
    least recently used entry, and ``"utility"`` evicts the entry with the
    fewest hits (oldest breaking ties), the Nirvana-style alternative §5.4
    ablates.  Slot choice needs no free list: a filling cache inserts at
    slot ``len(cache)``; a full one overwrites the FIFO ring cursor
    (always the oldest entry) or the LRU/utility policy's victim.

    **The cache contract** — what callers may use, on every backend
    (``tests/core/test_cache_contract.py`` holds each one to it):

    * scheduler and serving engine: ``retrieve``, ``retrieve_batch``,
      ``record_hit``, ``insert``, ``retrieval_latency_s``,
      ``storage_bytes`` and ``len()``;
    * cluster router and cache migration: ``centroid``,
      ``coarse_centroids``, ``snapshot_entries`` and ``insert``;
    * journal and recovery: ``snapshot``, ``restore`` and ``clear``;
    * perfbench: ``scan_entries`` and the ``lookups``, ``insertions``
      and ``evictions`` counters;
    * benches and tests: ``retrieve_topk``, ``entries``, ``capacity``,
      ``backend`` and ``index``.

    Returned entries are :class:`CacheEntry` views.  Every other member
    is private.  The row-store hooks (``_init_rows``, ``_row``,
    ``_store_row``, ``_exact_scan``, ``_exact_batch``, ``_on_hit`` and
    the ``*_rows`` snapshot hooks) are where
    :class:`~repro.core.tiering.TieredVectorCache` differs.
    """

    def __init__(
        self,
        capacity: int,
        embed_dim: int,
        policy: str = "fifo",
        backend: str = "exact",
        ann: Optional[IVFParams] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if backend not in RETRIEVAL_BACKENDS:
            raise ValueError(
                f"unknown retrieval backend {backend!r}; "
                f"available: {list(RETRIEVAL_BACKENDS)}"
            )
        # snap: derived (immutable configuration; a snapshot carries it
        # as its ``shape``, which restore checks)
        self._capacity = capacity
        self._embed_dim = embed_dim  # snap: derived (see above)
        self._policy_name = policy  # snap: derived (see above)
        self._backend = backend  # snap: derived (see above)
        self._policy = self._new_policy()
        # Per-slot columns; an empty slot holds entry id -1.
        self._entry_ids = np.full(capacity, -1, dtype=np.int64)
        self._inserted_at = np.zeros(capacity)
        self._hits = np.zeros(capacity, dtype=np.int64)
        self._payloads: List[Optional[PayloadT]] = [None] * capacity
        self._live = np.zeros(capacity, dtype=bool)
        self._n_live = 0  # snap: derived (counted from live on restore)
        self._cursor = 0  # FIFO ring: the next slot to fill or overwrite
        # Running sum of live embeddings — an O(d) centroid sketch the
        # cluster router's cache-affinity policy reads on every arrival.
        self._embedding_sum = np.zeros(embed_dim)
        # Memoized 1-row coarse_centroids(); every write to the running
        # sum resets it.
        # snap: derived (recomputed from embedding_sum on first read)
        self._sketch_memo: Optional[np.ndarray] = None
        # Running total of the live payloads' ``size_bytes``.
        # snap: derived (recounted from the payloads on restore)
        self._storage_bytes = 0
        # SnapCounter, not itertools.count: entry ids key staleness
        # checks and must survive snapshot/restore exactly.
        self._ids = SnapCounter()
        self.insertions = 0
        self.evictions = 0
        self.lookups = 0
        rows, embeddings = self._init_rows()
        # The inserted embedding arrays by slot (None on the tiered
        # cache): views return them and snapshots copy the references.
        self._embeddings: Optional[List[Optional[np.ndarray]]] = embeddings
        # IVF index over the row store and the live column; None on the
        # exact backend.
        self._index: Optional[IVFIndex] = (
            IVFIndex(rows, self._live, ann or IVFParams())
            if backend == "ivf"
            else None
        )

    def _new_policy(self) -> Optional[EvictionPolicy]:
        # FIFO needs no bookkeeping: the ring cursor is the oldest slot.
        if self._policy_name == "fifo":
            return None
        return make_eviction_policy(self._policy_name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def index(self) -> Optional[IVFIndex]:
        """The IVF index (``None`` on the exact backend)."""
        return self._index

    def __len__(self) -> int:
        return self._n_live

    def _view(self, slot: int) -> CacheEntry[PayloadT]:
        return CacheEntry(self, self._entry_ids.item(slot), slot)

    def entries(self) -> List[CacheEntry[PayloadT]]:
        """Views of the live entries, oldest (lowest id) first."""
        slots = np.flatnonzero(self._live)
        order = np.argsort(self._entry_ids[slots], kind="stable")
        return [self._view(slot) for slot in slots[order].tolist()]

    def storage_bytes(self) -> int:
        """Total payload storage (uses each payload's ``size_bytes``).

        A running total kept on insert, evict, restore and clear;
        payloads are immutable once cached, so it equals the per-entry
        sum.
        """
        return self._storage_bytes

    def scan_entries(self) -> int:
        """Modelled entries touched per query (sublinear once IVF trains)."""
        n = self._n_live
        if self._index is not None and self._index.trained:
            return self._index.scan_entries(n)
        return n

    def retrieval_latency_s(self) -> float:
        """Scheduler-side latency of one similarity scan at current size."""
        return self.scan_entries() * RETRIEVAL_SECONDS_PER_ENTRY

    def coarse_centroids(self) -> Optional[np.ndarray]:
        """Semantic sketch of the contents, one centroid per row.

        With a trained IVF index this is the per-cell running means —
        the multi-centroid sketch cache-affinity routing scores against;
        otherwise it degrades to the single running-mean
        :meth:`centroid` as a 1-row matrix.  ``None`` when empty.  The
        result is read-only and the same object until the cache next
        changes, so a reader can key derived values on its identity.
        """
        if self._index is not None:
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
        """Mean of the live embeddings, or None when the cache is empty.

        Maintained as a running sum (O(d) per insert/evict, never a
        matrix scan), so the cluster router can read a semantic sketch of
        this cache's contents on every arrival.  The running sum drifts
        from the exact column mean by float-accumulation error only,
        which is irrelevant at routing granularity.
        """
        n = self._n_live
        if n == 0:
            return None
        return self._embedding_sum / n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        payload: PayloadT,
        embedding: np.ndarray,
        now: float,
    ) -> Optional[EvictedEntry[PayloadT]]:
        """Insert a payload; returns the evicted entry, if any.

        A filling cache uses slot ``len(self)``; a full one overwrites
        the FIFO ring cursor or, under LRU/utility, the policy's victim.
        """
        if embedding.shape != (self._embed_dim,):
            raise ValueError(
                f"embedding must have shape ({self._embed_dim},), "
                f"got {embedding.shape}"
            )
        full = self._n_live == self._capacity
        if self._policy is None:
            slot = self._cursor
            self._cursor = (slot + 1) % self._capacity
        elif full:
            slot = self._policy.victim(self._entry_ids)
        else:
            slot = self._n_live
        evicted = self._evict(slot) if full else None
        emb = np.asarray(embedding, dtype=float)
        entry_id = next(self._ids)
        self._entry_ids[slot] = entry_id
        self._inserted_at[slot] = now
        self._hits[slot] = 0
        self._payloads[slot] = payload
        self._live[slot] = True
        self._store_row(slot, emb)
        self._storage_bytes += getattr(payload, "size_bytes", 0)
        self._embedding_sum += emb
        self._sketch_memo = None
        if self._index is not None:
            self._index.add(slot, emb)
        if self._policy is not None:
            self._policy.on_insert(slot, entry_id, 0)
        if not full:
            self._n_live += 1
        self.insertions += 1
        return evicted

    def _evict(self, slot: int) -> EvictedEntry[PayloadT]:
        """Drop the entry at ``slot`` ahead of the insert that reuses
        the slot (and overwrites its columns); returns its fields."""
        embedding = self._row(slot)
        payload = self._payloads[slot]
        entry = EvictedEntry(
            self._entry_ids.item(slot),
            slot,
            payload,
            embedding,
            float(self._inserted_at[slot]),
            int(self._hits[slot]),
        )
        if self._index is not None:
            self._index.remove(slot, embedding)
        if self._policy is not None:
            self._policy.on_evict(slot)
        self._storage_bytes -= getattr(payload, "size_bytes", 0)
        self._embedding_sum -= embedding
        self.evictions += 1
        return entry

    def record_hit(self, entry: CacheEntry[PayloadT], now: float) -> None:
        """Count a confirmed cache hit against ``entry``.

        A stale view (its slot recycled since retrieval) is inert.
        """
        slot = entry.slot
        if self._entry_ids[slot] != entry.entry_id:
            return
        hits = int(self._hits[slot]) + 1
        self._hits[slot] = hits
        self._on_hit(slot, entry.entry_id, hits, now)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _check_query(self, query: np.ndarray) -> Optional[np.ndarray]:
        """Validate ``query`` and count the lookup; returns the unit
        query, or None when nothing can match (empty cache, zero query)."""
        if query.shape != (self._embed_dim,):
            raise ValueError(
                f"query must have shape ({self._embed_dim},), "
                f"got {query.shape}"
            )
        self.lookups += 1
        if self._n_live == 0:
            return None
        # sqrt(dot) is exactly what np.linalg.norm computes for 1-D floats,
        # without the linalg and array-function dispatch overhead (hot
        # path: one call per scheduler decision).
        qnorm = math.sqrt(float(query.dot(query)))
        if qnorm == 0.0:
            return None
        return query / qnorm

    def retrieve(
        self, query: np.ndarray
    ) -> Tuple[Optional[CacheEntry[PayloadT]], float]:
        """Most-similar entry and its cosine similarity (Eq. 1).

        Returns ``(None, 0.0)`` on an empty cache or a zero query.  Does
        not count a hit — the scheduler decides hit/miss after
        thresholding and then calls :meth:`record_hit`.  Exact
        similarity ties resolve to the lowest slot.
        """
        query_unit = self._check_query(query)
        if query_unit is None:
            return None, 0.0
        if self._index is not None and self._index.ready(self._n_live):
            found = self._index.search(query_unit)
            if found is not None:
                slot, sim = found
                return self._view(slot), sim
            # Every probed cell empty/tombstoned: exact fallback below.
        slots, sims = self._exact_scan(query_unit)
        best = int(np.argmax(sims))
        slot = best if slots is None else int(slots[best])
        return self._view(slot), float(sims[best])

    def retrieve_topk(
        self, query: np.ndarray, k: int
    ) -> List[Tuple[CacheEntry[PayloadT], float]]:
        """The ``k`` most-similar live entries, ordered by
        ``(-similarity, slot)``.

        A partition, not a full sort: O(n + k log k).  Returns fewer
        than ``k`` pairs when occupancy is below ``k`` — or, on the IVF
        backend, when the probed cells hold fewer than ``k`` live
        entries (entries outside the probe set are invisible to an
        approximate lookup).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_unit = self._check_query(query)
        if query_unit is None:
            return []
        if self._index is not None and self._index.ready(self._n_live):
            found = self._index.search_topk(query_unit, k)
            if found:
                return [(self._view(slot), sim) for slot, sim in found]
            # Every probed cell empty/tombstoned: exact fallback below.
        slots, sims = self._exact_scan(query_unit)
        if slots is None:
            slots = np.arange(sims.size)
        k = min(k, self._n_live)
        if k < sims.size:
            # >= the k-th best keeps every candidate tied at the
            # boundary, so the slot tie-break decides which survive.
            keep = sims >= np.partition(sims, -k)[-k]
            slots, sims = slots[keep], sims[keep]
        order = np.lexsort((slots, -sims))[:k]
        return [
            (self._view(int(slots[i])), float(sims[i])) for i in order
        ]

    def retrieve_batch(
        self, queries: np.ndarray
    ) -> List[Tuple[Optional[CacheEntry[PayloadT]], float]]:
        """Best match per row of ``queries``.

        The batched path the Request Scheduler uses for same-tick
        arrivals.  A single-row batch, and every IVF batch, runs
        :meth:`retrieve` per row, so each row is bit-for-bit a
        sequential call (IVF candidate gathering is per query anyway,
        and each row still pays only its probed cells).  The rest is the
        row store's exact batch scan.
        """
        if queries.ndim != 2 or queries.shape[1] != self._embed_dim:
            raise ValueError(
                f"queries must have shape (n, {self._embed_dim}), "
                f"got {queries.shape}"
            )
        n = queries.shape[0]
        if n == 1 or (
            self._index is not None
            and self._n_live
            and self._index.ready(self._n_live)
        ):
            return [self.retrieve(queries[i]) for i in range(n)]
        return self._exact_batch(queries)

    # ------------------------------------------------------------------
    # Row store: one dense matrix (TieredVectorCache overrides these)
    # ------------------------------------------------------------------
    def _init_rows(self) -> Tuple[np.ndarray, Optional[list]]:
        """Allocate the row store: ``(rows the index reads, embedding
        references by slot)``."""
        self._matrix = np.zeros((self._capacity, self._embed_dim))
        return self._matrix, [None] * self._capacity

    def _row(self, slot: int) -> np.ndarray:
        return self._embeddings[slot]

    def _store_row(self, slot: int, embedding: np.ndarray) -> None:
        self._matrix[slot] = embedding
        self._embeddings[slot] = embedding

    def _exact_scan(
        self, query_unit: np.ndarray
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(slots, sims)`` of the exact scan; ``slots`` None means
        ``sims`` is indexed by slot, dead slots at ``-inf``."""
        sims = self._matrix @ query_unit
        # Mask dead slots (zero rows, sim exactly 0.0) so they can never
        # shadow a live entry with a negative similarity.  A full cache —
        # the steady state — has no dead slots and skips the masking pass.
        if self._n_live < self._capacity:
            sims = np.where(self._live, sims, -np.inf)
        return None, sims

    def _exact_batch(
        self, queries: np.ndarray
    ) -> List[Tuple[Optional[CacheEntry[PayloadT]], float]]:
        """One matrix-matrix product for the whole batch (its
        similarities can differ from per-row calls in the last ulp)."""
        n = queries.shape[0]
        self.lookups += n
        empty: Tuple[Optional[CacheEntry[PayloadT]], float] = (None, 0.0)
        if self._n_live == 0:
            return [empty] * n
        norms = np.linalg.norm(queries, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = (queries / safe[:, None]) @ self._matrix.T
        if self._n_live < self._capacity:
            sims = np.where(self._live[None, :], sims, -np.inf)
        best = np.argmax(sims, axis=1).tolist()
        return [
            empty
            if norms[i] == 0.0
            else (self._view(best[i]), float(sims[i, best[i]]))
            for i in range(n)
        ]

    def _on_hit(
        self, slot: int, entry_id: int, hits: int, now: float
    ) -> None:
        if self._policy is not None:
            self._policy.on_hit(slot, entry_id, hits)

    def _snapshot_rows(self) -> List[Optional[np.ndarray]]:
        return list(self._embeddings)

    def _restore_rows(self, embeddings: List[Optional[np.ndarray]]) -> None:
        self._embeddings = list(embeddings)
        self._matrix[:] = 0.0
        for slot in np.flatnonzero(self._live).tolist():
            self._matrix[slot] = self._embeddings[slot]

    def _clear_rows(self) -> None:
        self._matrix[:] = 0.0
        self._embeddings = [None] * self._capacity

    def _snapshot_row(self, state: "VectorCacheState", slot: int):
        return state.rows[slot]

    # ------------------------------------------------------------------
    # Snapshot / restore / clear (fault-tolerance surface)
    # ------------------------------------------------------------------
    def snapshot(self) -> "VectorCacheState":
        """Copy of the full cache state, IVF index included.

        Columns are copied; payloads and embeddings are shared by
        reference (immutable once cached), so the snapshot is unaffected
        by later hits against the live cache.  Side-effect-free.
        """
        return self._capture(self._snapshot_rows(), blocks=True)

    def restore(self, state: "VectorCacheState") -> None:
        """Adopt a snapshot in place.

        In place matters: the IVF index holds references to this
        cache's row store and ``_live`` column, so restore writes into
        them instead of reallocating.
        """
        self._adopt(state)
        self._restore_rows(state.rows)

    def _shape(self) -> Dict[str, object]:
        return dict(
            capacity=self._capacity,
            dim=self._embed_dim,
            policy=self._policy_name,
            backend=self._backend,
        )

    def _capture(self, rows, blocks: bool) -> "VectorCacheState":
        return VectorCacheState(
            shape=self._shape(),
            entry_ids=self._entry_ids.copy(),
            inserted_at=self._inserted_at.copy(),
            hits=self._hits.copy(),
            payloads=list(self._payloads),
            live=self._live.copy(),
            cursor=self._cursor,
            embedding_sum=self._embedding_sum.copy(),
            policy_state=(
                None if self._policy is None else self._policy.state()
            ),
            ids_value=self._ids.value,
            insertions=self.insertions,
            evictions=self.evictions,
            lookups=self.lookups,
            index_state=(
                None
                if self._index is None
                else self._index.snapshot_state(include_blocks=blocks)
            ),
            rows=rows,
        )

    def _adopt(self, state: "VectorCacheState") -> None:
        """Restore the columns, counters and IVF structure."""
        if state.shape != self._shape():
            raise ValueError(
                f"cache snapshot shape mismatch: snapshot is "
                f"{state.shape}; cache is {self._shape()}"
            )
        self._entry_ids[:] = state.entry_ids
        self._inserted_at[:] = state.inserted_at
        self._hits[:] = state.hits
        self._payloads = list(state.payloads)
        self._live[:] = state.live
        self._n_live = int(np.count_nonzero(self._live))
        self._cursor = state.cursor
        # The running sum is order-dependent float accumulation — it
        # cannot be recomputed from the entries without drifting from
        # the live cache by rounding, so the captured copy is adopted.
        self._embedding_sum[:] = state.embedding_sum
        self._sketch_memo = None
        self._storage_bytes = sum(
            getattr(self._payloads[slot], "size_bytes", 0)
            for slot in np.flatnonzero(self._live).tolist()
        )
        self._policy = self._new_policy()
        if self._policy is not None:
            self._policy.restore_state(state.policy_state)
        self._ids.value = state.ids_value
        self.insertions = state.insertions
        self.evictions = state.evictions
        self.lookups = state.lookups
        if self._index is not None:
            self._index.restore_state(state.index_state)

    def clear(self) -> None:
        """Cold restart: drop every entry, keep counter positions.

        The id counter is NOT rewound — stale ``(entry_id, slot)``
        tombstones in eviction bookkeeping must never collide with ids
        issued after the restart.  Cumulative traffic counters persist
        (a reboot does not un-serve past lookups), and the IVF index
        keeps its RNG stream position for the same reason.
        """
        self._entry_ids[:] = -1
        self._inserted_at[:] = 0.0
        self._hits[:] = 0
        self._payloads = [None] * self._capacity
        self._live[:] = False
        self._n_live = 0
        self._cursor = 0
        self._embedding_sum[:] = 0.0
        self._sketch_memo = None
        self._storage_bytes = 0
        self._policy = self._new_policy()
        if self._index is not None:
            self._index.clear()
        self._clear_rows()

    def snapshot_entries(
        self, state: "VectorCacheState"
    ) -> List[tuple]:
        """``(entry_id, payload, embedding, inserted_at)`` per entry of
        a snapshot, ascending entry id (the cache-migration surface:
        deterministic order, no slot/index internals exposed)."""
        slots = np.flatnonzero(state.live)
        slots = slots[np.argsort(state.entry_ids[slots], kind="stable")]
        return [
            (
                int(state.entry_ids[slot]),
                state.payloads[slot],
                self._snapshot_row(state, slot),
                float(state.inserted_at[slot]),
            )
            for slot in slots.tolist()
        ]


@dataclass
class VectorCacheState:
    """Opaque snapshot of a :class:`VectorCache` (see ``snapshot``).

    ``rows`` is the row store's part: the flat cache's embedding
    references by slot, or the tiered cache's
    :class:`~repro.core.tiering.TierState`.
    """

    shape: Dict[str, object]
    entry_ids: np.ndarray
    inserted_at: np.ndarray
    hits: np.ndarray
    payloads: List[object]
    live: np.ndarray
    cursor: int
    embedding_sum: np.ndarray
    policy_state: object
    ids_value: int
    insertions: int
    evictions: int
    lookups: int
    index_state: Optional[IVFState]
    rows: object


class ImageCache(VectorCache[SyntheticImage]):
    """MoDM's final-image cache (any model family can consume entries)."""


def make_image_cache(
    capacity: int,
    embed_dim: int,
    policy: str = "fifo",
    backend: str = "exact",
    ann: Optional[IVFParams] = None,
    tiering=None,
) -> VectorCache[SyntheticImage]:
    """Build an image cache: tiered (quantized hot tier + ``pread`` cold
    tier, :mod:`repro.core.tiering`) when a ``TieredCacheConfig`` is
    passed, a flat :class:`ImageCache` otherwise."""
    if tiering is not None:
        # Imported lazily: tiering subclasses this module's cache, so a
        # top-level import would be circular.
        from repro.core.tiering import TieredVectorCache

        return TieredVectorCache(
            capacity=capacity,
            embed_dim=embed_dim,
            tiering=tiering,
            policy=policy,
            backend=backend,
            ann=ann,
        )
    return ImageCache(
        capacity=capacity,
        embed_dim=embed_dim,
        policy=policy,
        backend=backend,
        ann=ann,
    )


class LatentCache(VectorCache[CachedLatent]):
    """Nirvana-style latent cache, restricted to one producing model.

    ``retrieve_for_model`` filters out entries a different model produced;
    with a single-model baseline this never triggers, but it documents the
    §3.1 fragmentation cost of latent caching in multi-model settings.
    """

    def retrieve_for_model(
        self, query: np.ndarray, model_name: str
    ) -> Tuple[Optional[CacheEntry[CachedLatent]], float]:
        return _usable(self.retrieve(query), model_name)

    def retrieve_batch_for_model(
        self, queries: np.ndarray, model_name: str
    ) -> List[Tuple[Optional[CacheEntry[CachedLatent]], float]]:
        """Batched :meth:`retrieve_for_model` over rows of ``queries``."""
        return [
            _usable(found, model_name)
            for found in self.retrieve_batch(queries)
        ]


def _usable(found, model_name: str):
    """A retrieval result, or ``(None, 0.0)`` if ``model_name`` cannot
    use the entry's latents."""
    entry, _ = found
    if entry is not None and not entry.payload.usable_by(model_name):
        return None, 0.0
    return found
