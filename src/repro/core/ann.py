"""IVF-partitioned approximate-nearest-neighbor retrieval index.

The exact retrieval path scans every live cache slot per query — one
masked matrix-vector product, O(n·d).  That is the right call at the
paper's 100k operating point, but the production target ("millions of
users") puts millions of entries behind the semantic cache, where an
exact scan per request re-enters the critical path.  This module
supplies the sublinear alternative: an IVF (inverted-file) index that
partitions the embedding space into ``nlist`` coarse cells and, per
query, scans only the ``nprobe`` nearest cells' members.

Design, in the order a request sees it:

* **Lazy spherical k-means training** — the index trains itself on the
  first search after occupancy reaches ``train_min`` live entries:
  unit-normalized live embeddings (subsampled past ``train_sample``)
  are clustered into ``nlist`` unit centroids by a fixed number of
  Lloyd iterations.  Everything is seeded through :mod:`repro._rng`
  (``seed_for``/``rng_for``), so training is bit-reproducible across
  runs and machines.  Before training the owning cache serves queries
  through its exact path, so a cold cache behaves identically to the
  exact backend.
* **Packed inverted lists** — each cell stores its members' embeddings
  in a contiguous float32 block (the classic IVF layout), so probing a
  cell is one sequential block-matvec instead of a row gather from the
  big matrix — gather overhead, not flops, dominates the re-rank at
  scale.  Rows are rounded once, when written: to float32 by default,
  or to float16 precision for the tiered cache's quantized scan tier
  (decoded at write, fp16 precision, f32 storage — a probe never
  decodes).  A row-aligned int64 array holds each cell's member slots.
  Inserts assign their slot to the nearest coarse centroid in
  O(nlist·d) and append to that cell's block; evictions flip a
  row-valid bit (a lazy tombstone) and cells compact once tombstones
  outnumber live rows.  Cells also keep a running sum of their live
  members, generalizing the cache-global ``centroid()`` running-mean
  sketch to one mean per cell — the cluster router's cache-affinity
  policy reads these per-cell means instead of maintaining its own
  sketch.
* **Multi-probe search with exact re-rank** — a query scores the
  ``nlist`` coarse centroids (one small matvec), scans the ``nprobe``
  best cells' blocks in float32 (one matvec per cell), keeps only the
  rows still valid, and re-scores the winners against the cache's
  float64 embedding matrix — so the *similarities* the scheduler
  thresholds are always exact; only *which* entries were considered is
  approximate.  Ties break toward the lowest slot id and every step is
  a deterministic function of the index state.
* **Drift control** — assignment anchors are fixed between trainings;
  after ``retrain_inserts`` insertions (default: two full cache
  turnovers) the index retrains from the current live set so anchors
  track the workload.

Memory overhead beyond the owning cache: the float32 blocks (half the
f64 matrix's bytes whatever the rounding, amortized-doubling slack at
most 2x that) plus O(capacity) slot bookkeeping and O(nlist·d)
centroid state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro._rng import rng_for

#: Retrieval backends ``VectorCache`` accepts (``config.retrieval_backend``).
RETRIEVAL_BACKENDS: Tuple[str, ...] = ("exact", "ivf")

#: Packed-block precisions (``IVFParams.block_dtype``).  ``fp32`` is the
#: historical rounding; ``fp16`` rounds each row to half precision for
#: the tiered cache's quantized scan tier.  Either way the block stores
#: float32, decoded once at write, and the exact f64 re-rank keeps
#: returned similarities exact.
BLOCK_DTYPES: Tuple[str, ...] = ("fp32", "fp16")


@dataclass
class IVFState:
    """Opaque snapshot of an :class:`IVFIndex` (see ``snapshot_state``).

    Everything except the owning cache's matrix/live buffers, which the
    cache snapshot carries; restoring re-binds the existing buffers.
    """

    centroids: Optional[np.ndarray]
    lists: List[List[int]]
    # ``None`` when captured with ``include_blocks=False`` (the tiered
    # cache's block-free snapshots): restore then allocates exact-size
    # zeroed blocks and the owner refills live rows from its cold store.
    blocks: Optional[List[Optional[np.ndarray]]]
    valid: List[Optional[np.ndarray]]
    stale: List[int]
    cell_sums: Optional[np.ndarray]
    cell_counts: Optional[np.ndarray]
    assign: np.ndarray
    row_of: np.ndarray
    inserts_since_train: int
    trainings: int


@dataclass(frozen=True)
class IVFParams:
    """Tunables of an :class:`IVFIndex` (zeros mean "auto").

    ``nlist`` — number of coarse cells; auto picks ``~sqrt(capacity)``
    clamped to [8, 4096], the standard IVF sizing.  ``nprobe`` — cells
    scanned per query; recall rises and speedup falls with it.
    ``train_min`` — live entries required before the index trains (auto:
    ``max(256, 4·nlist)``); below it the cache serves exact.
    ``train_sample`` caps the k-means training subsample,
    ``train_iters`` the Lloyd iterations.  ``retrain_inserts`` — inserts
    between automatic retrainings (auto: ``2·capacity``; the running
    per-cell means track drift in between).  ``seed`` namespaces every
    random draw through :func:`repro._rng.rng_for`.

    ``block_dtype`` — precision the packed per-cell blocks are rounded
    to when a row is written: ``"fp32"`` (default, the historical
    rounding, bit-identical) or ``"fp16"`` (each f64 row rounded
    straight to half precision).  Blocks are float32 arrays either way
    — an fp16 row is decoded at write, not per probe, at 4 bytes per
    element — and the exact re-rank keeps returned similarities exact.
    ``rerank`` — size of the exact-re-rank shortlist: the
    top-``rerank`` block-scan candidates are re-scored against the f64
    matrix and the best *exact* similarity wins.  The default 1
    re-scores only the block-scan winner (the historical behavior,
    preserved bit-for-bit); quantized blocks want a wider shortlist
    because the fp16 scan can misorder near-ties.
    """

    nlist: int = 0
    nprobe: int = 8
    train_min: int = 0
    train_sample: int = 65_536
    train_iters: int = 10
    retrain_inserts: int = 0
    block_dtype: str = "fp32"
    rerank: int = 1
    seed: str = "ivf"

    def __post_init__(self) -> None:
        if self.nlist < 0:
            raise ValueError("nlist must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.train_min < 0:
            raise ValueError("train_min must be >= 0 (0 = auto)")
        if self.train_sample < 1:
            raise ValueError("train_sample must be >= 1")
        if self.train_iters < 1:
            raise ValueError("train_iters must be >= 1")
        if self.retrain_inserts < 0:
            raise ValueError("retrain_inserts must be >= 0 (0 = auto)")
        if self.block_dtype not in BLOCK_DTYPES:
            raise ValueError(
                f"unknown block_dtype {self.block_dtype!r}; "
                f"available: {list(BLOCK_DTYPES)}"
            )
        if self.rerank < 1:
            raise ValueError("rerank must be >= 1")

    def resolved_nlist(self, capacity: int) -> int:
        if self.nlist:
            return min(self.nlist, capacity)
        return max(8, min(4096, round(math.sqrt(capacity))))

    def resolved_train_min(self, capacity: int) -> int:
        nlist = self.resolved_nlist(capacity)
        if self.train_min:
            return self.train_min
        return max(256, 4 * nlist)

    def resolved_retrain_inserts(self, capacity: int) -> int:
        if self.retrain_inserts:
            return self.retrain_inserts
        return 2 * capacity

    def resolved_block_dtype(self) -> np.dtype:
        """The dtype a row is rounded through before its f32 store."""
        if self.block_dtype == "fp16":
            return np.dtype(np.float16)
        return np.dtype(np.float32)


class IVFIndex:
    """Inverted-file index over a cache's preallocated embedding matrix.

    ``matrix`` and ``live`` are the owning cache's buffers (never
    reallocated); the index reads them for training and exact re-ranking
    but only the cache mutates them.  The cache drives the index through
    :meth:`add` / :meth:`remove` on insert/evict and :meth:`ready` /
    :meth:`search` / :meth:`search_topk` on retrieval.

    Per-cell state is row-parallel: ``_members[c][r]`` (an int64 array
    that grows with the block) is the slot whose embedding sits in
    ``_blocks[c][r]`` and whose liveness bit is ``_valid[c][r]``; the
    first ``_fill[c]`` rows are in use.  ``_row_of[slot]`` locates a
    live slot's row in its assigned cell, so eviction flips one bit
    without scanning.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        live: np.ndarray,
        params: IVFParams,
    ):
        capacity, _ = matrix.shape
        self._matrix = matrix  # snap: derived (cache-owned buffer)
        self._live = live  # snap: derived (cache-owned buffer)
        self.params = params  # snap: derived (immutable config)
        self.nlist = params.resolved_nlist(capacity)  # snap: derived
        # Clamped to nlist: below that occupancy train() cannot fit the
        # requested cells, and an unclamped gate would make every
        # retrieval in [train_min, nlist) attempt (and abort) training.
        self.train_min = max(  # snap: derived (from params)
            params.resolved_train_min(capacity), self.nlist
        )
        # snap: derived (from params)
        self._retrain_inserts = params.resolved_retrain_inserts(capacity)
        # Every write rounds f64 rows straight to this dtype (never via
        # f32: double rounding changes bits) and stores them widened,
        # exactly, in f32 blocks, so a probe never decodes.
        # snap: derived (from params)
        self._round_dtype = params.resolved_block_dtype()
        self._centroids: Optional[np.ndarray] = None  # (nlist, d), unit
        # Per-cell member slots, row-aligned with the block (same
        # length, slack included); rows [:_fill[c]] are in use.
        self._members: List[Optional[np.ndarray]] = []
        self._fill: List[int] = []
        self._blocks: List[Optional[np.ndarray]] = []  # (cap, d) f32
        self._valid: List[Optional[np.ndarray]] = []  # (cap,) bool
        self._stale: List[int] = []  # tombstoned rows per cell
        # Running sums/counts of each cell's *live* members — the
        # per-cell generalization of VectorCache's centroid sketch.
        self._cell_sums: Optional[np.ndarray] = None
        self._cell_counts: Optional[np.ndarray] = None
        # slot -> assigned cell (-1 = unassigned/dead) and slot -> row
        # within that cell's block.
        self._assign = np.full(capacity, -1, dtype=np.int64)
        self._row_of = np.zeros(capacity, dtype=np.int64)
        # Memoized coarse_centroids() result; the cluster router reads
        # the sketch on every arrival, so rebuild it only after the
        # cell sums actually change (insert/evict/train).
        self._coarse_memo: Optional[np.ndarray] = None  # snap: derived
        self._inserts_since_train = 0
        self.trainings = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @property
    def trained(self) -> bool:
        return self._centroids is not None

    def ready(self, n_live: int) -> bool:
        """True when searches should take the IVF path; trains lazily.

        Called by the cache on every retrieval: trains the index the
        first time occupancy reaches ``train_min`` (and again after
        ``retrain_inserts`` insertions), then reports whether the coarse
        structure exists.
        """
        if n_live >= self.train_min and (
            not self.trained
            or self._inserts_since_train >= self._retrain_inserts
        ):
            self.train()
        return self.trained

    def train(self) -> None:
        """(Re)fit coarse centroids from live embeddings and rebuild cells."""
        slots = np.flatnonzero(self._live)
        if slots.size < max(2, self.nlist):
            return
        data = self._matrix[slots]
        norms = np.sqrt(np.einsum("ij,ij->i", data, data))
        norms[norms == 0.0] = 1.0
        data = data / norms[:, None]
        rng = rng_for(self.params.seed, "ivf-train", self.trainings)
        if slots.size > self.params.train_sample:
            sample = rng.choice(
                slots.size, size=self.params.train_sample, replace=False
            )
            sample.sort()
            train_data = data[sample]
        else:
            train_data = data
        self._centroids = _spherical_kmeans(
            train_data, self.nlist, self.params.train_iters, rng
        )
        self._rebuild_cells(slots, data)
        self._inserts_since_train = 0
        self.trainings += 1

    def build_from_chunks(self, chunk_source, n_live: int) -> None:
        """Train + build cells by streaming ``(slots, rows)`` chunks.

        The bulk counterpart of :meth:`train` for corpora that do not
        fit in RAM: ``chunk_source()`` must return a *fresh* iterator of
        ``(slots, rows)`` pairs — an int64 slot array and the matching
        float64 embedding rows — covering every live slot exactly once
        in a deterministic order.  Three sequential passes (sample
        gather, assignment + running sums, block fill) replace the
        incremental path's full-matrix materialization, so peak memory
        is one chunk plus the packed blocks.  Deterministic: the k-means
        sample is drawn by stream position from the same
        ``rng_for(seed, "ivf-train", trainings)`` stream the incremental
        path uses.
        """
        if n_live < max(2, self.nlist):
            raise ValueError(
                f"cannot build: {n_live} live rows < "
                f"max(2, nlist={self.nlist})"
            )
        nlist = self.nlist
        dim = self._matrix.shape[1]
        rng = rng_for(self.params.seed, "ivf-train", self.trainings)
        n_sample = min(n_live, self.params.train_sample)
        if n_sample < n_live:
            sample = rng.choice(n_live, size=n_sample, replace=False)
            sample.sort()
        else:
            sample = np.arange(n_live)
        # Pass 1: gather the training sample by stream position.
        train_rows = np.empty((n_sample, dim))
        pos = 0
        filled = 0
        for _slots, rows in chunk_source():
            m = rows.shape[0]
            take = sample[(sample >= pos) & (sample < pos + m)] - pos
            if take.size:
                train_rows[filled : filled + take.size] = rows[take]
                filled += take.size
            pos += m
        if pos != n_live or filled != n_sample:
            raise ValueError(
                f"chunk_source yielded {pos} rows, expected {n_live}"
            )
        norms = np.sqrt(
            np.einsum("ij,ij->i", train_rows, train_rows)
        )
        norms[norms == 0.0] = 1.0
        # Bound the training assignment temporary at large nlist: the
        # default 16k-row chunk against 4096 centroids is a ~0.5 GiB
        # float64 matrix per Lloyd iteration, real money against the
        # bulk path's resident-memory budget.  nlist <= 1024 keeps the
        # default (and its exact historical rounding).
        self._centroids = _spherical_kmeans(
            train_rows / norms[:, None],
            nlist,
            self.params.train_iters,
            rng,
            argmax_chunk=max(
                1024, min(16_384, (1 << 24) // max(1, nlist))
            ),
        )
        # Pass 2: assign every row, accumulate per-cell counts/sums.
        self._assign[:] = -1
        counts = np.zeros(nlist, dtype=np.int64)
        sums = np.zeros((nlist, dim))
        # Bound the argmax temporary at ~32 MB regardless of nlist.
        argmax_chunk = max(1024, (1 << 22) // max(1, nlist))
        for slots, rows in chunk_source():
            rnorms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            rnorms[rnorms == 0.0] = 1.0
            assign = _chunked_argmax(
                rows / rnorms[:, None], self._centroids, argmax_chunk
            )
            self._assign[slots] = assign
            counts += np.bincount(assign, minlength=nlist)
            np.add.at(sums, assign, rows)
        # Exact-size blocks (no doubling slack at bulk scale).
        self._blocks = [
            np.empty((int(c), dim), dtype=np.float32)
            if c
            else None
            for c in counts
        ]
        self._valid = [
            np.ones(int(c), dtype=bool) if c else None for c in counts
        ]
        member_arrays: List[Optional[np.ndarray]] = [
            np.empty(int(c), dtype=np.int64) if c else None
            for c in counts
        ]
        cursors = np.zeros(nlist, dtype=np.int64)
        # Pass 3: scatter rows into their cells in stream order.
        for slots, rows in chunk_source():
            assign = self._assign[slots]
            order = np.argsort(assign, kind="stable")
            cells, starts = np.unique(
                assign[order], return_index=True
            )
            bounds = np.append(starts, order.size)
            for j in range(cells.size):
                cell = int(cells[j])
                grp = order[starts[j] : bounds[j + 1]]
                cur = int(cursors[cell])
                stop = cur + grp.size
                self._blocks[cell][cur:stop] = rows[grp].astype(
                    self._round_dtype
                )
                member_arrays[cell][cur:stop] = slots[grp]
                cursors[cell] = stop
        for arr in member_arrays:
            if arr is not None:
                self._row_of[arr] = np.arange(arr.size)
        self._members = member_arrays
        self._fill = [int(c) for c in counts]
        self._stale = [0] * nlist
        self._cell_sums = sums
        self._cell_counts = counts
        self._coarse_memo = None
        self._inserts_since_train = 0
        self.trainings += 1

    def _rebuild_cells(
        self, slots: np.ndarray, unit_data: np.ndarray
    ) -> None:
        assert self._centroids is not None
        nlist = self._centroids.shape[0]
        dim = self._matrix.shape[1]
        assign = _chunked_argmax(unit_data, self._centroids)
        self._assign[:] = -1
        self._assign[slots] = assign
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=nlist)
        self._members = []
        self._fill = []
        self._blocks = []
        self._valid = []
        start = 0
        for cell in range(nlist):
            stop = start + int(counts[cell])
            members = slots[order[start:stop]]
            self._row_of[members] = np.arange(members.size)
            self._fill.append(members.size)
            if members.size:
                self._members.append(members)
                self._blocks.append(
                    self._matrix[members]
                    .astype(self._round_dtype)
                    .astype(np.float32, copy=False)
                )
                self._valid.append(np.ones(members.size, dtype=bool))
            else:
                self._members.append(None)
                self._blocks.append(None)
                self._valid.append(None)
            start = stop
        self._stale = [0] * nlist
        self._cell_sums = np.zeros((nlist, dim))
        np.add.at(self._cell_sums, assign, self._matrix[slots])
        self._cell_counts = counts.astype(np.int64)
        self._coarse_memo = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _append_row(
        self, cell: int, slot: int, embedding: np.ndarray
    ) -> None:
        row = self._fill[cell]
        block = self._blocks[cell]
        if block is None or row >= block.shape[0]:
            rows = max(8, 2 * row)
            grown = np.empty(
                (rows, self._matrix.shape[1]), dtype=np.float32
            )
            valid = np.zeros(rows, dtype=bool)
            members = np.empty(rows, dtype=np.int64)
            if block is not None:
                grown[:row] = block[:row]
                valid[:row] = self._valid[cell][:row]
                members[:row] = self._members[cell][:row]
            self._blocks[cell] = grown
            self._valid[cell] = valid
            self._members[cell] = members
            block = grown
        block[row] = embedding.astype(self._round_dtype)
        self._valid[cell][row] = True
        self._members[cell][row] = slot
        self._fill[cell] = row + 1
        self._row_of[slot] = row

    def add(self, slot: int, embedding: np.ndarray) -> None:
        """Assign a freshly inserted slot to its nearest coarse cell."""
        self._inserts_since_train += 1
        if not self.trained:
            return
        # argmax of dot(emb, unit centroids): positive scaling of the
        # embedding cannot change the winner, so the raw embedding is
        # scored directly (a zero embedding lands in cell 0).
        cell = int(np.argmax(self._centroids @ embedding))
        self._assign[slot] = cell
        self._append_row(cell, slot, embedding)
        self._cell_sums[cell] += embedding
        self._cell_counts[cell] += 1
        self._coarse_memo = None

    def remove(self, slot: int, embedding: np.ndarray) -> None:
        """Tombstone an evicted slot (row-valid bit flip, no scan)."""
        if not self.trained:
            return
        cell = int(self._assign[slot])
        if cell < 0:
            return
        self._assign[slot] = -1
        self._valid[cell][self._row_of[slot]] = False
        self._cell_sums[cell] -= embedding
        self._cell_counts[cell] -= 1
        self._coarse_memo = None
        self._stale[cell] += 1
        live_members = self._fill[cell] - self._stale[cell]
        if self._stale[cell] > max(16, live_members):
            self._compact(cell)

    def _compact(self, cell: int) -> None:
        """Drop a cell's tombstoned rows, repacking the live ones."""
        m = self._fill[cell]
        keep = self._valid[cell][:m]
        kept = self._members[cell][:m][keep]
        self._fill[cell] = kept.size
        if kept.size:
            self._members[cell] = kept
            self._blocks[cell] = self._blocks[cell][:m][keep]
            self._valid[cell] = np.ones(kept.size, dtype=bool)
            self._row_of[kept] = np.arange(kept.size)
        else:
            self._members[cell] = None
            self._blocks[cell] = None
            self._valid[cell] = None
        self._stale[cell] = 0

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _probe(
        self, query_unit: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Concatenated (slots, f32 sims) over the probed cells' live rows.

        Each cell is scored with its own matvec over all of its rows
        (tombstones included), then only the valid rows are kept.  The
        per-cell ``block[:m] @ q32`` is deliberate: BLAS sgemv rounding
        depends on a row's position in the matrix, so fusing, padding
        or compacting cells would change f32 similarities and with them
        the shortlist.  Cells are visited in a deterministic order, so
        the concatenation — and therefore every downstream tie-break —
        is a pure function of the index state.  Returns
        ``(None, None)`` when the probed cells hold no live row
        (callers fall back to exact).
        """
        assert self._centroids is not None
        csims = self._centroids @ query_unit
        nprobe = min(self.params.nprobe, csims.shape[0])
        if nprobe < csims.shape[0]:
            probe = np.argpartition(csims, -nprobe)[-nprobe:]
        else:
            probe = np.arange(csims.shape[0])
        q32 = query_unit.astype(np.float32)
        slot_parts = []
        sim_parts = []
        for cell in probe.tolist():
            m = self._fill[cell]
            if m == 0:
                continue
            sims = self._blocks[cell][:m] @ q32
            members = self._members[cell][:m]
            if self._stale[cell]:
                keep = self._valid[cell][:m]
                sims = sims[keep]
                members = members[keep]
            slot_parts.append(members)
            sim_parts.append(sims)
        if not slot_parts:
            return None, None
        sims = np.concatenate(sim_parts)
        if sims.size == 0:
            return None, None  # every probed row tombstoned
        return np.concatenate(slot_parts), sims

    def _exact_sim(self, slot: int, query_unit: np.ndarray) -> float:
        """Full-precision cosine of one slot (winners are re-scored
        against the f64 matrix, so returned similarities never carry
        the f32 block-scan error)."""
        return float(np.dot(self._matrix[slot], query_unit))

    def search(
        self, query_unit: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        """Best live slot and its exact similarity, or None.

        With ``rerank == 1`` (the default) only the block-scan winner is
        re-scored — the historical behavior, bit-for-bit: block-sim ties
        (identical cached embeddings) break toward the lowest slot id,
        matching :meth:`search_topk`'s ordering for duplicate entries.
        With ``rerank > 1`` the top-``rerank`` block candidates (plus
        any tied at the selection boundary) are re-scored against the
        f64 matrix and the best *exact* similarity wins (lowest slot id
        breaking exact ties) — the shortlist that makes a quantized
        block scan safe against near-tie misordering.
        """
        slots, sims = self._probe(query_unit)
        if slots is None:
            return None
        rerank = self.params.rerank
        if rerank <= 1:
            best_sim = sims.max()
            best_slot = int(slots[sims == best_sim].min())
            return best_slot, self._exact_sim(best_slot, query_unit)
        if rerank < sims.size:
            kth = np.partition(sims, -rerank)[-rerank]
            sel = slots[sims >= kth]
        else:
            sel = slots
        exact = self._matrix[sel] @ query_unit
        order = np.lexsort((sel, -exact))
        top = int(order[0])
        return int(sel[top]), float(exact[top])

    def search_topk(
        self, query_unit: np.ndarray, k: int
    ) -> List[Tuple[int, float]]:
        """Top-``k`` live slots over the probed cells, best first.

        Approximate in the IVF sense: entries outside the probed cells
        are invisible, so fewer than ``k`` pairs can come back even when
        occupancy exceeds ``k``.  Selection runs on the f32 blocks; the
        selected rows are re-scored and ordered by exact f64 similarity
        (lowest slot id breaking ties).
        """
        slots, sims = self._probe(query_unit)
        if slots is None:
            return []
        # The shortlist is at least ``rerank`` wide so a quantized block
        # scan cannot silently drop the exact winner (rerank=1 keeps
        # the historical selection width bit-for-bit).
        r = max(k, self.params.rerank)
        if r < sims.size:
            kth = np.partition(sims, -r)[-r]
            # >= kth keeps every candidate tied at the selection
            # boundary, so the f64 re-rank — not the partition's
            # arbitrary tie order — decides which of them survive.
            sel = slots[sims >= kth]
        else:
            sel = slots
        exact = self._matrix[sel] @ query_unit
        order = np.lexsort((sel, -exact))[:k]
        return [(int(sel[i]), float(exact[i])) for i in order]

    # ------------------------------------------------------------------
    # Snapshot / restore / clear
    # ------------------------------------------------------------------
    def snapshot_state(self, include_blocks: bool = True) -> IVFState:
        """Copy every mutable structure except the cache's buffers.

        Side-effect-free: no memo builds, no compactions — capturing a
        snapshot must not perturb the live run's future behaviour.

        ``include_blocks=False`` omits the packed block copies (the
        dominant cost at bulk scale) — the tiered cache's snapshots do
        this because every block row is reconstructible from its cold
        store; see :meth:`restore_state`.
        """
        return IVFState(
            centroids=(
                None
                if self._centroids is None
                else self._centroids.copy()
            ),
            lists=[
                [] if members is None else members[:m].tolist()
                for members, m in zip(self._members, self._fill)
            ],
            blocks=(
                [
                    None if block is None else block.copy()
                    for block in self._blocks
                ]
                if include_blocks
                else None
            ),
            valid=[
                None if valid is None else valid.copy()
                for valid in self._valid
            ],
            stale=list(self._stale),
            cell_sums=(
                None
                if self._cell_sums is None
                else self._cell_sums.copy()
            ),
            cell_counts=(
                None
                if self._cell_counts is None
                else self._cell_counts.copy()
            ),
            assign=self._assign.copy(),
            row_of=self._row_of.copy(),
            inserts_since_train=self._inserts_since_train,
            trainings=self.trainings,
        )

    def restore_state(self, state: IVFState) -> None:
        """Adopt a snapshot; the matrix/live buffer bindings are kept
        (the owning cache restores their contents).

        A block-free snapshot (``include_blocks=False``) restores to
        exact-size zeroed blocks; the owner must refill the *valid* rows
        from its row source afterwards (tombstoned rows may stay zero —
        the probe drops them before they can influence any result, and
        exact-size blocks only drop doubling slack the search never
        reads).
        """
        self._centroids = (
            None if state.centroids is None else state.centroids.copy()
        )
        if state.blocks is None:
            dim = self._matrix.shape[1]
            self._blocks = [
                np.zeros((len(members), dim), dtype=np.float32)
                if members
                else None
                for members in state.lists
            ]
        else:
            # astype copies; it also widens fp16 blocks captured when
            # blocks stored half precision, so old snapshots restore.
            self._blocks = [
                None if block is None else block.astype(np.float32)
                for block in state.blocks
            ]
        # Member arrays match their block's length (slack included).
        self._fill = [len(members) for members in state.lists]
        self._members = []
        for members, block in zip(state.lists, self._blocks):
            if block is None:
                self._members.append(None)
                continue
            arr = np.empty(block.shape[0], dtype=np.int64)
            arr[: len(members)] = members
            self._members.append(arr)
        self._valid = [
            None if valid is None else valid.copy()
            for valid in state.valid
        ]
        self._stale = list(state.stale)
        self._cell_sums = (
            None if state.cell_sums is None else state.cell_sums.copy()
        )
        self._cell_counts = (
            None
            if state.cell_counts is None
            else state.cell_counts.copy()
        )
        self._assign[:] = state.assign
        self._row_of[:] = state.row_of
        self._inserts_since_train = state.inserts_since_train
        self.trainings = state.trainings
        self._coarse_memo = None

    def refill_rows(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Re-quantize ``rows`` into the packed blocks of ``slots``.

        The second half of a block-free snapshot restore: after
        :meth:`restore_state` allocated zeroed blocks, the owning cache
        streams its row source through here and each slot currently
        assigned to a cell gets its exact row written back (rounded to
        the block precision, as on insert).  Slots with no cell
        assignment — dead, or inserted while untrained — are skipped.
        """
        if not self.trained or slots.size == 0:
            return
        cells = self._assign[slots]
        mask = cells >= 0
        if not mask.any():
            return
        cells = cells[mask]
        members = slots[mask]
        data = rows[mask]
        order = np.argsort(cells, kind="stable")
        cells_sorted = cells[order]
        uniq, starts = np.unique(cells_sorted, return_index=True)
        bounds = np.append(starts, cells_sorted.size)
        for j in range(uniq.size):
            cell = int(uniq[j])
            grp = order[starts[j] : bounds[j + 1]]
            block = self._blocks[cell]
            block[self._row_of[members[grp]]] = data[grp].astype(
                self._round_dtype
            )

    def clear(self) -> None:
        """Back to untrained, keeping the RNG stream position.

        A cold restart drops all structure but must NOT rewind
        ``trainings``: it indexes the k-means RNG stream, and replaying
        a draw would correlate post-restart training with pre-kill
        training in a way a real reboot never would.
        """
        self._centroids = None
        self._members = []
        self._fill = []
        self._blocks = []
        self._valid = []
        self._stale = []
        self._cell_sums = None
        self._cell_counts = None
        self._assign[:] = -1
        self._row_of[:] = 0
        self._coarse_memo = None
        self._inserts_since_train = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def coarse_centroids(self) -> Optional[np.ndarray]:
        """Per-cell means of live members, one row per non-empty cell.

        The multi-centroid semantic sketch the cluster router's
        cache-affinity policy scores against — running sums, never a
        matrix scan, memoized between cache mutations (the router reads
        it per arrival).  The result is read-only and the same object
        until the next insert, evict, training, clear or restore, so a
        reader can key derived values on its identity.
        """
        if not self.trained:
            return None
        if self._coarse_memo is None:
            occupied = self._cell_counts > 0
            if not occupied.any():
                return None
            memo = (
                self._cell_sums[occupied]
                / self._cell_counts[occupied, None]
            )
            memo.flags.writeable = False
            self._coarse_memo = memo
        return self._coarse_memo

    def scan_entries(self, n_live: int) -> int:
        """Modelled per-query work in entry-scan units.

        The coarse scan touches ``nlist`` centroids and the block scan
        an expected ``n_live·nprobe/nlist`` members (uniform-occupancy
        approximation), so the scheduler's modelled retrieval latency
        stays sublinear in cache size.
        """
        if not self.trained:
            return n_live
        expected = math.ceil(
            n_live * min(1.0, self.params.nprobe / self.nlist)
        )
        return min(n_live, self.nlist + expected)


def _spherical_kmeans(
    data: np.ndarray,
    nlist: int,
    iters: int,
    rng: np.random.Generator,
    argmax_chunk: int = 16_384,
) -> np.ndarray:
    """Unit centroids from unit ``data`` rows via Lloyd iterations.

    Deterministic given ``rng``: initial centroids are a uniform sample
    of distinct rows; an emptied cluster keeps its previous centroid.
    With fewer rows than ``nlist`` the surplus centroids reuse sampled
    rows (choice with replacement) — harmless, they converge apart or
    stay duplicates and the probe scan tolerates both.
    ``argmax_chunk`` bounds the per-iteration assignment temporary
    (``chunk x nlist`` float64); chunking can perturb BLAS summation
    order, so callers that must stay bit-identical to history keep the
    default.
    """
    n = data.shape[0]
    replace = n < nlist
    init = rng.choice(n, size=nlist, replace=replace)
    centroids = data[init].copy()
    for _ in range(iters):
        assign = _chunked_argmax(data, centroids, argmax_chunk)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        counts = np.bincount(assign, minlength=nlist)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        norms = np.sqrt(
            np.einsum("ij,ij->i", centroids, centroids)
        )
        norms[norms == 0.0] = 1.0
        centroids /= norms[:, None]
    return centroids


def _chunked_argmax(
    data: np.ndarray, centroids: np.ndarray, chunk: int = 16_384
) -> np.ndarray:
    """Row-wise ``argmax(data @ centroids.T)`` without a giant temporary."""
    n = data.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        out[start:stop] = np.argmax(
            data[start:stop] @ centroids.T, axis=1
        )
    return out
