"""Tests for trace containers and the two dataset generators."""

import collections
import hashlib
import struct

import numpy as np
import pytest

from repro.workloads import (
    DiffusionDBConfig,
    MJHQConfig,
    diffusiondb_trace,
    mjhq_trace,
)
from repro.workloads.trace import Trace, TraceRequest


class TestTraceContainer:
    def test_rejects_unsorted(self, prompts):
        reqs = [
            TraceRequest(0, prompts[0], 10.0),
            TraceRequest(1, prompts[1], 5.0),
        ]
        with pytest.raises(ValueError):
            Trace(name="bad", requests=reqs)

    def test_duration_and_rate(self, prompts):
        reqs = [
            TraceRequest(i, prompts[i], float(i * 30)) for i in range(5)
        ]
        trace = Trace(name="t", requests=reqs)
        assert trace.duration_s == 120.0
        assert np.isclose(trace.mean_rate_per_min, 2.0)

    def test_empty_trace_duration(self):
        trace = Trace(name="t", requests=[])
        assert trace.duration_s == 0.0
        assert trace.mean_rate_per_min == 0.0

    def test_slice_keeps_metadata(self, ddb_trace):
        sub = ddb_trace.slice(10, 20)
        assert len(sub) == 10
        assert sub.metadata == ddb_trace.metadata

    def test_rebase_starts_at_zero(self, ddb_trace):
        sub = ddb_trace.slice(100).rebase()
        assert sub.requests[0].arrival_s == 0.0
        assert len(sub) == len(ddb_trace) - 100

    def test_ignore_timestamps(self, ddb_trace):
        flat = ddb_trace.ignore_timestamps()
        assert all(r.arrival_s == 0.0 for r in flat)

    def test_with_arrivals_resorts(self, prompts):
        reqs = [TraceRequest(i, prompts[i], float(i)) for i in range(3)]
        trace = Trace(name="t", requests=reqs)
        retimed = trace.with_arrivals([5.0, 1.0, 3.0])
        assert [r.arrival_s for r in retimed] == [1.0, 3.0, 5.0]

    def test_with_arrivals_length_mismatch(self, ddb_trace):
        with pytest.raises(ValueError):
            ddb_trace.with_arrivals([0.0])

    def test_negative_arrival_rejected(self, prompts):
        with pytest.raises(ValueError):
            TraceRequest(0, prompts[0], -1.0)


class TestDiffusionDBTrace:
    def test_request_count(self, ddb_trace):
        assert len(ddb_trace) == 600

    def test_sorted_arrivals(self, ddb_trace):
        arr = [r.arrival_s for r in ddb_trace]
        assert all(b >= a for a, b in zip(arr, arr[1:]))

    def test_rate_near_target(self, space):
        trace = diffusiondb_trace(
            space,
            DiffusionDBConfig(
                n_requests=2000, request_rate_per_min=10.0, seed="rate-t"
            ),
        )
        assert 8.0 < trace.mean_rate_per_min < 12.0

    def test_sessions_have_multiple_prompts(self, ddb_trace):
        counts = collections.Counter(
            r.prompt.session_id for r in ddb_trace
        )
        multi = [c for c in counts.values() if c >= 2]
        assert len(multi) > len(counts) * 0.3

    def test_session_prompts_close_in_time(self, ddb_trace):
        by_session = collections.defaultdict(list)
        for r in ddb_trace:
            by_session[r.prompt.session_id].append(r.arrival_s)
        gaps = []
        for times in by_session.values():
            if len(times) >= 2:
                times = sorted(times)
                gaps.extend(np.diff(times))
        # Temporal locality: iterations arrive minutes apart (mean 3 min).
        assert np.median(gaps) < 1200.0

    def test_deterministic(self, space):
        cfg = DiffusionDBConfig(n_requests=100, seed="det")
        a = diffusiondb_trace(space, cfg)
        b = diffusiondb_trace(space, cfg)
        assert [r.prompt.prompt_id for r in a] == [
            r.prompt.prompt_id for r in b
        ]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DiffusionDBConfig(n_requests=0)
        with pytest.raises(ValueError):
            DiffusionDBConfig(request_rate_per_min=0.0)
        with pytest.raises(ValueError):
            DiffusionDBConfig(session_length_mean=0.5)


class TestMJHQTrace:
    def test_prompt_count(self, mjhq_small):
        assert len(mjhq_small) == 400

    def test_families_scattered_in_time(self, mjhq_small):
        """Unlike DiffusionDB, family members are far apart in the trace."""
        positions = collections.defaultdict(list)
        for i, r in enumerate(mjhq_small.requests):
            positions[r.prompt.session_id].append(i)
        spreads = [
            max(p) - min(p) for p in positions.values() if len(p) >= 2
        ]
        assert np.median(spreads) > len(mjhq_small) * 0.1

    def test_mix_of_family_sizes(self, mjhq_small):
        counts = collections.Counter(
            r.prompt.session_id for r in mjhq_small
        )
        sizes = sorted(counts.values())
        assert sizes[0] <= 4
        assert sizes[-1] >= 20

    def test_deterministic(self, space):
        cfg = MJHQConfig(n_prompts=120, seed="det")
        a = mjhq_trace(space, cfg)
        b = mjhq_trace(space, cfg)
        assert [r.prompt.prompt_id for r in a] == [
            r.prompt.prompt_id for r in b
        ]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MJHQConfig(n_prompts=0)
        with pytest.raises(ValueError):
            MJHQConfig(large_family_fraction=1.5)

    def test_namespaces_disjoint(self, ddb_trace, mjhq_small):
        ddb_ids = {r.prompt.prompt_id for r in ddb_trace}
        mjhq_ids = {r.prompt.prompt_id for r in mjhq_small}
        assert not (ddb_ids & mjhq_ids)


def trace_sha256(trace):
    """Digest of everything a trace carries: prompt fields, semantics
    bytes and arrival times, in request order."""
    h = hashlib.sha256()
    for r in trace.requests:
        p = r.prompt
        fields = (
            r.request_id,
            p.prompt_id,
            p.text,
            p.tokens,
            p.topic_id,
            p.session_id,
            p.user_id,
        )
        h.update(repr(fields).encode())
        h.update(struct.pack("<d", r.arrival_s))
        h.update(p.semantics.tobytes())
    return h.hexdigest()


class TestTracePins:
    """Byte-level pins of synthesized traces, recorded before trace
    sessions were seeded in batches; synthesis must keep reproducing
    them exactly."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (
                "pin-1",
                "8e823b313a05c206bcdd86e43c4cea60"
                "86ab60c53046d9012a09268180fed2fd",
            ),
            (
                "pin-1729",
                "98938c258cbc73852610923991993ceca"
                "7b748f620178ecb2c651b6cfc72220d",
            ),
        ],
    )
    def test_diffusiondb(self, space, seed, digest):
        trace = diffusiondb_trace(
            space, DiffusionDBConfig(n_requests=1500, seed=seed)
        )
        assert trace_sha256(trace) == digest

    def test_mjhq(self, space):
        trace = mjhq_trace(space, MJHQConfig(n_prompts=1500, seed="pin-mjhq"))
        assert trace_sha256(trace) == (
            "419eadd5b95813ec04e7d3fa486ff598"
            "2c6efa6603de641c97f77c6e904edcdd"
        )

    def test_mjhq_without_drift(self, space):
        cfg = MJHQConfig(
            n_prompts=300, seed="pin-mjhq0", family_drift=0.0,
            prompt_drift=0.0,
        )
        assert trace_sha256(mjhq_trace(space, cfg)) == (
            "adbc69abc034f3cbb759fcddca728fb1"
            "06a25d6ab66a7790047c46475b00804b"
        )
