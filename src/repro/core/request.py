"""Request lifecycle records on a columnar store.

A request flows: arrival -> scheduling decision (embed + retrieve) -> queue
-> service on a worker -> completion.  The record captures every stage so
the metrics layer can compute latency percentiles, SLO compliance, and the
hit/miss/k breakdowns the figures report.

Since the columnar-engine refactor, per-request scalar state lives in
:class:`RequestStore` — growable numpy columns keyed by row — and
:class:`RequestRecord` is a two-slot *view handle* (store, row) whose
properties read and write those columns.  Object payloads (``Prompt``,
``SyntheticImage``, :class:`Decision`, :class:`SLORejection`) stay in
side lists/dicts on the store: they are reference types with no useful
columnar encoding, and keeping them out of the arrays keeps every column
a flat scalar dtype that metrics code can reduce with single numpy calls.

Encoding conventions (shared by every consumer):

- optional times (``enqueued_s`` … ``deadline_s``) are ``float64`` with
  ``NaN`` meaning "unset";
- optional ids (``worker_id``, ``replica_id``) are ``int64`` with ``-1``
  meaning "unset";
- ``slo_class`` / ``model_name`` are interned per-store string codes
  (``-1`` = unset);
- the scheduler outcome mirrors ``hit`` / ``k_steps`` / ``similarity``
  from the attached :class:`Decision` into columns so hit-rate and
  k-breakdown reductions never touch the Python objects.

Scalar reads return plain ``float``/``int``/``bool`` (not numpy
scalars) so downstream JSON serialisation is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.latent import SyntheticImage
from repro.workloads.prompts import Prompt


@dataclass(slots=True)
class Decision:
    """Outcome of the Request Scheduler for one request (§4.2, §5.2).

    ``candidate_image``/``candidate_similarity`` carry the nearest cache
    entry of a *miss* when the scheduler is asked to keep candidates (SLO
    degradation re-thresholds them through a more permissive selector);
    they are ``None``/``0.0`` otherwise and never set on hits.
    """

    hit: bool
    similarity: float = 0.0
    k_steps: int = 0
    retrieved_image: Optional[SyntheticImage] = None
    scheduler_latency_s: float = 0.0
    served_from_cache: bool = False
    candidate_image: Optional[SyntheticImage] = None
    candidate_similarity: float = 0.0

    def __post_init__(self) -> None:
        if self.hit and self.retrieved_image is None:
            raise ValueError("cache hits must carry the retrieved image")
        if self.k_steps < 0:
            raise ValueError("k_steps must be non-negative")

    @property
    def skip_fraction(self) -> float:
        """``k / T`` in the paper's T = 50 reference scale."""
        return self.k_steps / 50.0


@dataclass(frozen=True)
class SLORejection:
    """Typed rejection of a request shed by SLO admission control.

    Attached to :attr:`RequestRecord.rejection` instead of queueing work
    that cannot meet its deadline; ``best_estimate_s`` is the earliest
    completion any serving path *this request was allowed to take* could
    have offered when it was shed — always past the deadline minus the
    policy's ``slack_margin_s``, or the request would not have been shed.
    """

    time_s: float
    slo_class: str
    deadline_s: float
    best_estimate_s: float
    reason: str = "no path can meet the deadline"


_F8_COLUMNS: Tuple[str, ...] = (
    "arrival_s",
    "enqueued_s",
    "service_start_s",
    "completion_s",
    "deadline_s",
    "similarity",
)
_I8_COLUMNS: Tuple[str, ...] = (
    "request_id",
    "worker_id",
    "replica_id",
    "steps_run",
    "priority",
    "degrade_k_steps",
    "k_steps",
    "slo_code",
    "model_code",
)
_BOOL_COLUMNS: Tuple[str, ...] = (
    "degraded",
    "shed",
    "hit",
    "has_decision",
)
# Columns whose "unset" sentinel is NaN (vs. 0 for plain scalars).
_NAN_DEFAULT = frozenset(
    ("enqueued_s", "service_start_s", "completion_s", "deadline_s")
)
# Int columns whose "unset" sentinel is -1.
_NEG1_DEFAULT = frozenset(
    ("worker_id", "replica_id", "slo_code", "model_code")
)

COLUMNS: Tuple[str, ...] = _F8_COLUMNS + _I8_COLUMNS + _BOOL_COLUMNS


class RequestStore:
    """Columnar backing store for :class:`RequestRecord` views.

    All scalar per-request fields live in parallel numpy arrays with a
    shared live region ``[0, n)``; rows are allocated append-only (a
    serving run never forgets a request, so there is no free list).
    Growth doubles capacity and copies — amortised O(1) per request.

    Object payloads sit beside the columns: ``prompts``/``decisions``
    are dense lists (every request has a prompt and usually gains a
    decision) while ``images``/``degrade_sources``/``rejections`` are
    sparse dicts keyed by row (most runs store none or few of them).
    """

    __slots__ = (
        "_n",
        "_cap",
        "prompts",
        "decisions",
        "images",
        "degrade_sources",
        "rejections",
        "_slo_names",
        "_slo_codes",
        "_model_names",
        "_model_codes",
    ) + COLUMNS

    def __init__(self, capacity: int = 16) -> None:
        self._n = 0
        self._cap = max(1, int(capacity))
        for name in _F8_COLUMNS:
            fill = math.nan if name in _NAN_DEFAULT else 0.0
            setattr(self, name, np.full(self._cap, fill, dtype=np.float64))
        for name in _I8_COLUMNS:
            fill = -1 if name in _NEG1_DEFAULT else 0
            setattr(self, name, np.full(self._cap, fill, dtype=np.int64))
        for name in _BOOL_COLUMNS:
            setattr(self, name, np.zeros(self._cap, dtype=bool))
        self.prompts: List[Optional[Prompt]] = []
        self.decisions: List[Optional[Decision]] = []
        self.images: Dict[int, SyntheticImage] = {}
        self.degrade_sources: Dict[int, SyntheticImage] = {}
        self.rejections: Dict[int, SLORejection] = {}
        self._slo_names: List[str] = []
        self._slo_codes: Dict[str, int] = {}
        self._model_names: List[str] = []
        self._model_codes: Dict[str, int] = {}

    # -- allocation ----------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def _grow_to(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        if cap == self._cap:
            return
        old = self._cap
        for name in COLUMNS:
            col = getattr(self, name)
            grown = np.empty(cap, dtype=col.dtype)
            grown[:old] = col
            if name in _NAN_DEFAULT:
                grown[old:] = math.nan
            elif name in _NEG1_DEFAULT:
                grown[old:] = -1
            else:
                grown[old:] = 0
            setattr(self, name, grown)
        self._cap = cap

    def new_record(
        self, request_id: int, prompt: Optional[Prompt], arrival_s: float
    ) -> "RequestRecord":
        """Allocate one row and return its view handle."""
        row = self._n
        if row >= self._cap:
            self._grow_to(row + 1)
        self.request_id[row] = request_id
        self.arrival_s[row] = arrival_s
        self.prompts.append(prompt)
        self.decisions.append(None)
        self._n = row + 1
        return RequestRecord._view(self, row)

    def extend(self, requests: Iterable) -> List["RequestRecord"]:
        """Bulk-allocate one row per trace request, in order.

        ``requests`` yields objects with ``request_id`` / ``prompt`` /
        ``arrival_s`` attributes (:class:`~repro.workloads.trace.
        TraceRequest` in the serving engines).  Returns the new view
        handles in allocation order.
        """
        reqs = requests if isinstance(requests, (list, tuple)) else list(
            requests
        )
        k = len(reqs)
        if k == 0:
            return []
        n0 = self._n
        self._grow_to(n0 + k)
        self.request_id[n0 : n0 + k] = np.fromiter(
            (r.request_id for r in reqs), np.int64, count=k
        )
        self.arrival_s[n0 : n0 + k] = np.fromiter(
            (r.arrival_s for r in reqs), np.float64, count=k
        )
        self.prompts.extend(r.prompt for r in reqs)
        self.decisions.extend([None] * k)
        self._n = n0 + k
        view = RequestRecord._view
        return [view(self, row) for row in range(n0, n0 + k)]

    # -- string interning ----------------------------------------------
    def intern_slo(self, name: str) -> int:
        code = self._slo_codes.get(name)
        if code is None:
            code = len(self._slo_names)
            self._slo_codes[name] = code
            self._slo_names.append(name)
        return code

    def slo_name(self, code: int) -> Optional[str]:
        return None if code < 0 else self._slo_names[code]

    def intern_model(self, name: str) -> int:
        code = self._model_codes.get(name)
        if code is None:
            code = len(self._model_names)
            self._model_codes[name] = code
            self._model_names.append(name)
        return code

    def model_name(self, code: int) -> Optional[str]:
        return None if code < 0 else self._model_names[code]

    # -- vectorized access ---------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column's live region ``[0, n)``."""
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        view = getattr(self, name)[: self._n]
        view.flags.writeable = False
        return view

    def gather(self, name: str, rows: Optional[np.ndarray] = None):
        """One column over ``rows`` (live-region view when rows is None)."""
        if rows is None:
            return self.column(name)
        return getattr(self, name)[rows]


def columnar_view(
    records: Sequence["RequestRecord"],
) -> Optional[Tuple[RequestStore, np.ndarray]]:
    """``(store, rows)`` when every record views one shared store.

    Metrics consumers call this once per record list: when it succeeds,
    latency percentiles / SLO counts / hit breakdowns become single
    numpy reductions over gathered columns; when records are hand-built
    (each standalone handle owns a private store) it returns ``None``
    and callers fall back to the per-record loop.
    """
    if not records:
        return None
    first = records[0]
    if not isinstance(first, RequestRecord):
        return None
    store = first._store
    rows = np.empty(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        if record._store is not store:
            return None
        rows[i] = record._row
    return store, rows


class RequestRecord:
    """One request's full lifecycle in a serving run.

    A two-slot view handle over a :class:`RequestStore` row; the
    constructor keeps the historical field-by-field signature (tests and
    ad-hoc callers build standalone records, which get a private
    single-row store), while engines bulk-allocate rows via
    :meth:`RequestStore.extend` and receive handles from
    :meth:`RequestRecord._view`.

    ``replica_id`` is set by the fleet when it routes the request (0
    in a single engine's run, which is a one-replica fleet's).

    The SLO fields stay at their defaults unless the serving system runs
    with an :class:`~repro.core.config.SLOPolicy`: ``slo_class`` /
    ``priority`` / ``deadline_s`` are assigned at arrival, ``degraded``
    marks a request re-routed to the small-model path (with
    ``degrade_k_steps`` > 0 and ``degrade_source`` set when a cache
    candidate anchors the degraded refinement), and ``rejection`` carries
    the typed shed outcome of admission control.
    """

    __slots__ = ("_store", "_row")

    def __init__(
        self,
        request_id: int,
        prompt: Optional[Prompt],
        arrival_s: float,
        decision: Optional[Decision] = None,
        enqueued_s: Optional[float] = None,
        service_start_s: Optional[float] = None,
        completion_s: Optional[float] = None,
        worker_id: Optional[int] = None,
        model_name: Optional[str] = None,
        steps_run: int = 0,
        image: Optional[SyntheticImage] = None,
        replica_id: Optional[int] = None,
        slo_class: Optional[str] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        degraded: bool = False,
        degrade_k_steps: int = 0,
        degrade_source: Optional[SyntheticImage] = None,
        rejection: Optional[SLORejection] = None,
    ) -> None:
        store = RequestStore(capacity=1)
        handle = store.new_record(request_id, prompt, arrival_s)
        self._store = store
        self._row = handle._row
        if decision is not None:
            self.decision = decision
        self.enqueued_s = enqueued_s
        self.service_start_s = service_start_s
        self.completion_s = completion_s
        self.worker_id = worker_id
        self.model_name = model_name
        self.steps_run = steps_run
        if image is not None:
            self.image = image
        self.replica_id = replica_id
        self.slo_class = slo_class
        self.priority = priority
        self.deadline_s = deadline_s
        self.degraded = degraded
        self.degrade_k_steps = degrade_k_steps
        if degrade_source is not None:
            self.degrade_source = degrade_source
        if rejection is not None:
            self.rejection = rejection

    @classmethod
    def _view(cls, store: RequestStore, row: int) -> "RequestRecord":
        self = object.__new__(cls)
        self._store = store
        self._row = row
        return self

    # -- identity / trace fields ---------------------------------------
    @property
    def request_id(self) -> int:
        return int(self._store.request_id[self._row])

    @request_id.setter
    def request_id(self, value: int) -> None:
        self._store.request_id[self._row] = value

    @property
    def prompt(self) -> Optional[Prompt]:
        return self._store.prompts[self._row]

    @prompt.setter
    def prompt(self, value: Optional[Prompt]) -> None:
        self._store.prompts[self._row] = value

    @property
    def arrival_s(self) -> float:
        return float(self._store.arrival_s[self._row])

    @arrival_s.setter
    def arrival_s(self, value: float) -> None:
        self._store.arrival_s[self._row] = value

    # -- scheduler outcome ---------------------------------------------
    @property
    def decision(self) -> Optional[Decision]:
        return self._store.decisions[self._row]

    @decision.setter
    def decision(self, value: Optional[Decision]) -> None:
        store, row = self._store, self._row
        store.decisions[row] = value
        if value is None:
            store.has_decision[row] = False
            store.hit[row] = False
            store.k_steps[row] = 0
            store.similarity[row] = 0.0
        else:
            store.has_decision[row] = True
            store.hit[row] = value.hit
            store.k_steps[row] = value.k_steps
            store.similarity[row] = value.similarity

    # -- optional timestamps (NaN = unset) -----------------------------
    @property
    def enqueued_s(self) -> Optional[float]:
        v = self._store.enqueued_s[self._row]
        return None if v != v else float(v)

    @enqueued_s.setter
    def enqueued_s(self, value: Optional[float]) -> None:
        self._store.enqueued_s[self._row] = (
            math.nan if value is None else value
        )

    @property
    def service_start_s(self) -> Optional[float]:
        v = self._store.service_start_s[self._row]
        return None if v != v else float(v)

    @service_start_s.setter
    def service_start_s(self, value: Optional[float]) -> None:
        self._store.service_start_s[self._row] = (
            math.nan if value is None else value
        )

    @property
    def completion_s(self) -> Optional[float]:
        v = self._store.completion_s[self._row]
        return None if v != v else float(v)

    @completion_s.setter
    def completion_s(self, value: Optional[float]) -> None:
        self._store.completion_s[self._row] = (
            math.nan if value is None else value
        )

    @property
    def deadline_s(self) -> Optional[float]:
        v = self._store.deadline_s[self._row]
        return None if v != v else float(v)

    @deadline_s.setter
    def deadline_s(self, value: Optional[float]) -> None:
        self._store.deadline_s[self._row] = (
            math.nan if value is None else value
        )

    # -- optional ids (-1 = unset) -------------------------------------
    @property
    def worker_id(self) -> Optional[int]:
        v = self._store.worker_id[self._row]
        return None if v == -1 else int(v)

    @worker_id.setter
    def worker_id(self, value: Optional[int]) -> None:
        self._store.worker_id[self._row] = -1 if value is None else value

    @property
    def replica_id(self) -> Optional[int]:
        v = self._store.replica_id[self._row]
        return None if v == -1 else int(v)

    @replica_id.setter
    def replica_id(self, value: Optional[int]) -> None:
        self._store.replica_id[self._row] = -1 if value is None else value

    # -- interned strings ----------------------------------------------
    @property
    def model_name(self) -> Optional[str]:
        return self._store.model_name(
            self._store.model_code[self._row]
        )

    @model_name.setter
    def model_name(self, value: Optional[str]) -> None:
        store = self._store
        store.model_code[self._row] = (
            -1 if value is None else store.intern_model(value)
        )

    @property
    def slo_class(self) -> Optional[str]:
        return self._store.slo_name(self._store.slo_code[self._row])

    @slo_class.setter
    def slo_class(self, value: Optional[str]) -> None:
        store = self._store
        store.slo_code[self._row] = (
            -1 if value is None else store.intern_slo(value)
        )

    # -- plain scalars -------------------------------------------------
    @property
    def steps_run(self) -> int:
        return int(self._store.steps_run[self._row])

    @steps_run.setter
    def steps_run(self, value: int) -> None:
        self._store.steps_run[self._row] = value

    @property
    def priority(self) -> int:
        return int(self._store.priority[self._row])

    @priority.setter
    def priority(self, value: int) -> None:
        self._store.priority[self._row] = value

    @property
    def degrade_k_steps(self) -> int:
        return int(self._store.degrade_k_steps[self._row])

    @degrade_k_steps.setter
    def degrade_k_steps(self, value: int) -> None:
        self._store.degrade_k_steps[self._row] = value

    @property
    def degraded(self) -> bool:
        return bool(self._store.degraded[self._row])

    @degraded.setter
    def degraded(self, value: bool) -> None:
        self._store.degraded[self._row] = value

    # -- object payloads -----------------------------------------------
    @property
    def image(self) -> Optional[SyntheticImage]:
        return self._store.images.get(self._row)

    @image.setter
    def image(self, value: Optional[SyntheticImage]) -> None:
        if value is None:
            self._store.images.pop(self._row, None)
        else:
            self._store.images[self._row] = value

    @property
    def degrade_source(self) -> Optional[SyntheticImage]:
        return self._store.degrade_sources.get(self._row)

    @degrade_source.setter
    def degrade_source(self, value: Optional[SyntheticImage]) -> None:
        if value is None:
            self._store.degrade_sources.pop(self._row, None)
        else:
            self._store.degrade_sources[self._row] = value

    @property
    def rejection(self) -> Optional[SLORejection]:
        return self._store.rejections.get(self._row)

    @rejection.setter
    def rejection(self, value: Optional[SLORejection]) -> None:
        if value is None:
            self._store.rejections.pop(self._row, None)
            self._store.shed[self._row] = False
        else:
            self._store.rejections[self._row] = value
            self._store.shed[self._row] = True

    # -- derived views (unchanged public API) --------------------------
    @property
    def completed(self) -> bool:
        v = self._store.completion_s[self._row]
        return v == v

    @property
    def shed(self) -> bool:
        """True when admission control rejected this request."""
        return bool(self._store.shed[self._row])

    def slack_s(self, now: float) -> float:
        """Seconds until the deadline (negative once it has passed)."""
        d = self._store.deadline_s[self._row]
        if d != d:
            raise ValueError(
                f"request {self.request_id} has no deadline"
            )
        return float(d) - now

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        store, row = self._store, self._row
        c = store.completion_s[row]
        if c != c:
            raise ValueError(
                f"request {self.request_id} has not completed"
            )
        return float(c) - float(store.arrival_s[row])

    @property
    def queueing_s(self) -> float:
        """Time spent between enqueue and service start."""
        store, row = self._store, self._row
        start = store.service_start_s[row]
        enq = store.enqueued_s[row]
        if start != start or enq != enq:
            raise ValueError(
                f"request {self.request_id} never started service"
            )
        return float(start) - float(enq)

    @property
    def is_hit(self) -> bool:
        return bool(self._store.hit[self._row])

    # -- dataclass-compatible surface ----------------------------------
    _FIELDS = (
        "request_id",
        "prompt",
        "arrival_s",
        "decision",
        "enqueued_s",
        "service_start_s",
        "completion_s",
        "worker_id",
        "model_name",
        "steps_run",
        "image",
        "replica_id",
        "slo_class",
        "priority",
        "deadline_s",
        "degraded",
        "degrade_k_steps",
        "degrade_source",
        "rejection",
    )

    def __eq__(self, other: object):
        if not isinstance(other, RequestRecord):
            return NotImplemented
        if self is other:
            return True
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._FIELDS
        )

    # Match the old mutable dataclass: value-equal, unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"RequestRecord({fields})"
