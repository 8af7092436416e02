"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` wraps the public methods of each layer's classes (the
:data:`SPANNED` table) so every call records a span -- name, start,
end, parent -- on the thread CPU clock the calibrated meter also reads
(the run is single-threaded, so this is process CPU), and wraps a few
hot functions (:data:`COUNTED`) with counters only, because a span per
call would cost more than the call.  Spans are kept in flat arrays and
reduced to per-layer self time (span time minus child spans) when the
run ends.

Wrapping changes no result: every wrapper calls the original with the
same arguments and returns its value untouched, and :meth:`Tracer.
uninstall` puts the originals back.  Each traced benchmark run checks
that its per-request outcome digest equals the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (layer, module, class, method): every call of the method is a span.
SPANNED = (
    ("diffusion.model", "repro.diffusion.model", "DiffusionModelSim",
     "generate"),
    ("diffusion.model", "repro.diffusion.model", "DiffusionModelSim",
     "refine"),
    ("embedding", "repro.embedding.text_encoder", "ClipLikeTextEncoder",
     "encode"),
    ("embedding", "repro.embedding.text_encoder", "ClipLikeTextEncoder",
     "encode_batch"),
    ("embedding", "repro.embedding.image_encoder", "ClipLikeImageEncoder",
     "encode"),
    ("embedding", "repro.embedding.image_encoder", "ClipLikeImageEncoder",
     "encode_batch"),
    ("core.scheduler", "repro.core.scheduler", "RequestScheduler",
     "decide_batch"),
    *(
        ("core.cache", "repro.core.cache", "VectorCache", method)
        for method in (
            "retrieve", "retrieve_batch", "insert", "record_hit",
            "snapshot", "restore", "clear",
        )
    ),
    *(
        ("core.tiering", "repro.core.tiering", "TieredVectorCache", method)
        for method in (
            "retrieve", "retrieve_batch", "insert", "record_hit",
            "snapshot", "restore", "clear",
        )
    ),
    *(
        ("core.tiering", "repro.core.tiering", "ColdStore", method)
        for method in ("read_row", "read_rows", "append_rows")
    ),
    *(
        ("core.ann", "repro.core.ann", "IVFIndex", method)
        for method in ("search", "search_topk", "add", "remove", "train")
    ),
    ("cluster.events", "repro.cluster.events", "EventLoop", "run"),
    ("cluster.events", "repro.cluster.events", "EventLoop", "step_batch"),
    *(
        ("cluster.stats", "repro.cluster.stats", "StatsCollector", method)
        for method in ("record_decision", "window", "slo_window")
    ),
    ("core.monitor", "repro.core.monitor", "GlobalMonitor", "allocate"),
    ("core.journal", "repro.core.journal", "Snapshot", "capture"),
    ("core.journal", "repro.core.cluster_router", "ClusterSnapshot",
     "capture"),
    ("core.cluster_router", "repro.core.cluster_router", "ClusterRouter",
     "route_batch"),
    ("core.cluster_router", "repro.core.cluster_router", "ClusterRouter",
     "route_warm"),
    ("core.cluster_router", "repro.core.cluster_router",
     "ReplicaAutoscaler", "desired"),
)

#: (counter, module, class or None, function): counted, not spanned.
COUNTED = (
    ("rng.seed_for_calls", "repro._rng", None, "seed_for"),
    ("rng.unit_rows", "repro._rng", "DirectionCache", "unit"),
    ("rng.units_rows", "repro._rng", "DirectionCache", "units"),
    ("core.cache.scan_entries", "repro.core.cache", "VectorCache",
     "scan_entries"),
    ("core.cache.scan_entries", "repro.core.tiering", "TieredVectorCache",
     "scan_entries"),
)

_MEMO_MODULES = (
    "repro.embedding.text_encoder",
    "repro.embedding.image_encoder",
)


#: Spans whose first argument is a batch: rows are counted per call.
_ROW_SPANS = (
    "core.cluster_router.route_batch",
    "core.tiering.read_rows",
)

_COUNT_AMOUNT: Dict[str, Callable[[tuple, object], int]] = {
    "rng.seed_for_calls": lambda a, r: 1,
    "rng.unit_rows": lambda a, r: 1,
    "rng.units_rows": lambda a, r: len(a[2]),
    "core.cache.scan_entries": lambda a, r: int(r),
}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    The caller sets :attr:`segment` (index of the calibrated call in
    progress) and :attr:`phase` (``"setup"`` or ``"serve"``) before each
    measured call; spans and counters are attributed to them.
    """

    def __init__(self) -> None:
        self.segment = 0
        self.phase = "setup"
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._layer_of: List[str] = []
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_segment = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._open = -1
        self.counters: Dict[Tuple[str, str], int] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._layer_of.append(layer)
        return idx

    def count(self, key: str, amount: int) -> None:
        k = (key, self.phase)
        self.counters[k] = self.counters.get(k, 0) + amount

    def call(self, name: str, layer: str, fn: Callable[[], object]):
        """Run ``fn()`` inside a span named ``name``."""
        return self._spanned(self._name_id(name, layer), fn)()

    def _spanned(
        self,
        name_id: int,
        fn: Callable,
        post: Optional[Callable] = None,
        pre: Optional[Callable] = None,
    ) -> Callable:
        clock = time.thread_time
        names, parents = self._span_name, self._span_parent
        segments = self._span_segment
        starts, ends = self._span_start, self._span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            parent = self._open
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            segments.append(self.segment)
            ends.append(0.0)
            self._open = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self._open = parent
            if post is not None:
                post(args, result, token)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every :data:`SPANNED` method and :data:`COUNTED` function."""
        for layer, module, cls, method in SPANNED:
            owner = getattr(importlib.import_module(module), cls)
            name = f"{layer}.{method}"
            name_id = self._name_id(name, layer)
            post, pre = self._hooks(name, cls)
            self._patch(
                owner,
                method,
                functools.partial(
                    self._spanned, name_id, post=post, pre=pre
                ),
            )
        for key, module, cls, func in COUNTED:
            mod = importlib.import_module(module)
            amount = _COUNT_AMOUNT[key]
            make = functools.partial(self._counted, key, amount)
            if cls is not None:
                self._patch(getattr(mod, cls), func, make)
                continue
            # A module function is also bound by name in every module
            # that imported it; rebind all of them.
            original = getattr(mod, func)
            replacement = make(original)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if (
                    name.split(".")[0] == "repro"
                    and getattr(other, func, None) is original
                ):
                    self._patched.append((other, func, original))
                    setattr(other, func, replacement)

    def uninstall(self) -> None:
        """Put every original back (last patched first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted(self, key: str, amount, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(key, amount(args, result))
            return result

        return wrapper

    def _hooks(self, name: str, cls: str):
        """``(post, pre)`` hooks that count rows for span ``name``."""
        if name == "core.scheduler.decide_batch":

            def post(args, result, token):
                self.count("core.scheduler.prompts", len(args[1]))
                self.count(
                    "core.scheduler.hits", sum(d.hit for d in result)
                )

            return post, None
        if name.startswith("embedding."):
            kind = "text" if cls == "ClipLikeTextEncoder" else "image"
            return self._memo_hooks(name, kind)
        if name in _ROW_SPANS:

            def post(args, result, token):
                self.count(name + "_rows", len(args[1]))

            return post, None
        return None, None

    def _memo_hooks(self, name: str, kind: str):
        """Rows and fresh encodings of outermost embedding spans.

        A call that grows neither encoder's process-wide memo was served
        from a memo; the growth of the memos counts fresh encodings.
        """
        memos = [
            importlib.import_module(m)._EMBED_MEMO for m in _MEMO_MODULES
        ]
        batch = name.endswith("_batch")

        def pre(args):
            if self._open >= 0 and (
                self._layer_of[self._span_name[self._open]] == "embedding"
            ):
                return None  # nested: the outer embedding span counts
            return sum(len(m) for m in memos)

        def post(args, result, token):
            if token is None:
                return
            self.count(f"embedding.{kind}_rows", len(args[1]) if batch else 1)
            self.count(
                "embedding.fresh_rows", sum(len(m) for m in memos) - token
            )

        return post, pre

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def _per_name(
        self, phases: Sequence[str], weights: Optional[np.ndarray] = None
    ) -> Dict[Tuple[int, str], float]:
        """Sum of ``weights`` (default 1) per ``(name id, phase)``."""
        segment = np.frombuffer(self._span_segment, dtype=np.int32)
        name = np.frombuffer(self._span_name, dtype=np.int32)
        span_phase = np.asarray(phases)[segment]
        out: Dict[Tuple[int, str], float] = {}
        for phase in set(phases):
            mask = span_phase == phase
            totals = np.bincount(
                name[mask],
                weights=None if weights is None else weights[mask],
                minlength=len(self._names),
            )
            for i, total in enumerate(totals):
                out[(i, phase)] = float(total)
        return out

    def self_times(
        self, scales: Sequence[float], phases: Sequence[str]
    ) -> Dict[Tuple[str, str], float]:
        """Calibrated self time per ``(layer, phase)``.

        ``scales[s]`` converts CPU seconds of segment ``s`` to reference
        seconds; ``phases[s]`` names its phase.
        """
        start = np.frombuffer(self._span_start, dtype=np.float64)
        end = np.frombuffer(self._span_end, dtype=np.float64)
        parent = np.frombuffer(self._span_parent, dtype=np.int64)
        segment = np.frombuffer(self._span_segment, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        ref = (dur - child) * np.asarray(scales, dtype=np.float64)[segment]
        out: Dict[Tuple[str, str], float] = {}
        for (i, phase), total in self._per_name(phases, ref).items():
            key = (self._layer_of[i], phase)
            out[key] = out.get(key, 0.0) + total
        return out

    def span_counts(self, phases: Sequence[str]) -> Dict[Tuple[str, str], int]:
        """Number of spans per ``(span name, phase)``."""
        return {
            (self._names[i], phase): int(total)
            for (i, phase), total in self._per_name(phases).items()
        }
