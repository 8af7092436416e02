"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._rng import normalize, rng_for, seed_for, unit_vector
from repro.cluster.events import EventLoop
from repro.cluster.stats import StatsCollector
from repro.core.cache import VectorCache
from repro.core.kselection import KSelector, scale_k_steps
from repro.core.pid import PIDController
from repro.diffusion.schedule import NoiseSchedule
from repro.metrics.fid import frechet_distance
from repro.metrics.latency import slo_violation_rate

_SLOW = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

keys = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestRngProperties:
    @given(st.lists(keys, min_size=1, max_size=5))
    @_SLOW
    def test_seed_stable(self, key_list):
        assert seed_for(*key_list) == seed_for(*key_list)

    @given(st.integers(min_value=1, max_value=256))
    @_SLOW
    def test_unit_vector_norm(self, dim):
        vec = unit_vector(rng_for("prop", dim), dim)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False
            ),
            min_size=1,
            max_size=32,
        )
    )
    @_SLOW
    def test_normalize_idempotent(self, values):
        vec = np.array(values)
        once = normalize(vec)
        twice = normalize(once)
        assert np.allclose(once, twice, atol=1e-9)


class TestScheduleProperties:
    @given(
        st.integers(min_value=1, max_value=200),
        st.sampled_from(["flow", "cosine"]),
    )
    @_SLOW
    def test_sigmas_monotone_and_bounded(self, steps, kind):
        sigmas = NoiseSchedule(total_steps=steps, kind=kind).sigmas
        assert sigmas[0] == 1.0 and sigmas[-1] == 0.0
        assert np.all(np.diff(sigmas) <= 1e-12)
        assert np.all((sigmas >= 0) & (sigmas <= 1))

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @_SLOW
    def test_scaled_skip_in_range(self, steps, fraction):
        k = NoiseSchedule(total_steps=steps).scaled_skip(fraction)
        assert 0 <= k <= steps


class TestCacheProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=48),
        st.sampled_from(["fifo", "utility"]),
    )
    @_SLOW
    def test_size_never_exceeds_capacity(self, capacity, inserts, policy):
        cache = VectorCache(capacity=capacity, embed_dim=6, policy=policy)
        for i in range(inserts):
            cache.insert(i, unit_vector(rng_for("p", i), 6), now=float(i))
        assert len(cache) == min(capacity, inserts)
        assert cache.insertions == inserts
        assert cache.evictions == max(0, inserts - capacity)

    @given(st.integers(min_value=1, max_value=30))
    @_SLOW
    def test_retrieve_returns_live_entry(self, inserts):
        cache = VectorCache(capacity=8, embed_dim=6)
        for i in range(inserts):
            cache.insert(i, unit_vector(rng_for("q", i), 6), now=float(i))
        entry, sim = cache.retrieve(unit_vector(rng_for("q", 0), 6))
        assert entry is not None
        live = {e.payload for e in cache.entries()}
        assert entry.payload in live
        assert -1.0 <= sim <= 1.0 + 1e-9

    @given(st.data())
    @_SLOW
    def test_fifo_evicts_in_insertion_order(self, data):
        inserts = data.draw(st.integers(min_value=9, max_value=25))
        cache = VectorCache(capacity=8, embed_dim=4)
        evicted = []
        for i in range(inserts):
            out = cache.insert(
                i, unit_vector(rng_for("f", i), 4), now=float(i)
            )
            if out is not None:
                evicted.append(out.payload)
        assert evicted == list(range(inserts - 8))


class TestKSelectorProperties:
    @st.composite
    def selectors(draw):
        ks = sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=50),
                    min_size=1,
                    max_size=6,
                )
            )
        )
        base = draw(st.floats(min_value=0.0, max_value=0.5))
        taus = {}
        t = base
        for k in ks:
            t += draw(st.floats(min_value=0.0, max_value=0.1))
            taus[k] = min(t, 1.0)
        return KSelector(thresholds=taus)

    @given(selectors(), st.floats(min_value=-0.5, max_value=1.5))
    @_SLOW
    def test_decision_respects_threshold(self, selector, sim):
        k = selector.decide(sim)
        if k is None:
            assert sim < selector.hit_threshold
        else:
            assert sim >= selector.thresholds[k]
            # No larger k would also have been admissible.
            for bigger in selector.k_set:
                if bigger > k:
                    assert sim < selector.thresholds[bigger]

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=200),
    )
    @_SLOW
    def test_scale_k_preserves_fraction(self, k_ref, total):
        k = scale_k_steps(k_ref, total)
        assert 0 <= k <= total
        assert abs(k / total - k_ref / 50) <= 0.5 / total + 1e-12


class TestPidProperties:
    @given(
        st.floats(min_value=0.0, max_value=32.0),
        st.floats(min_value=0.0, max_value=32.0),
    )
    @_SLOW
    def test_output_sign_matches_error(self, target, current):
        pid = PIDController()
        out = pid.compute(target, current)
        error = target - current
        if abs(error) > 1e-9:
            assert np.sign(out) == np.sign(error)
        else:
            assert abs(out) <= 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=16), min_size=5, max_size=40))
    @_SLOW
    def test_tracks_constant_setpoint(self, noise):
        pid = PIDController()
        current = 0.0
        for _ in range(80):
            current += pid.compute(10.0, current)
        assert abs(current - 10.0) < 1.0


class TestEventLoopProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @_SLOW
    def test_fires_in_nondecreasing_time_order(self, times):
        loop = EventLoop()
        fired = []
        for t in times:
            loop.schedule(t, fired.append)
        loop.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestStatsProperties:
    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.sampled_from([5, 10, 15, 20, 25, 30])
            ),
            min_size=1,
            max_size=80,
        )
    )
    @_SLOW
    def test_hit_rate_consistent(self, events):
        stats = StatsCollector()
        for i, (hit, k) in enumerate(events):
            stats.record_decision(float(i), hit=hit, k=k)
        window = stats.window(now=float(len(events)), window_s=1e6)
        expected = sum(1 for h, _ in events if h) / len(events)
        assert np.isclose(window.hit_rate, expected)
        if window.k_rates:
            assert np.isclose(sum(window.k_rates.values()), 1.0)


class TestMetricProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.1, max_value=1e4),
    )
    @_SLOW
    def test_slo_rate_bounded(self, latencies, threshold):
        report = slo_violation_rate(latencies, threshold)
        assert 0.0 <= report.violation_rate <= 1.0
        assert report.violations <= report.total

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=100),
    )
    @_SLOW
    def test_frechet_identity_and_nonnegativity(self, dim, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((40, dim))
        mu = samples.mean(axis=0)
        sigma = np.cov(samples, rowvar=False) + 1e-6 * np.eye(dim)
        assert abs(frechet_distance(mu, sigma, mu, sigma)) < 1e-6
        other = rng.standard_normal((40, dim)) + 1.0
        mu2 = other.mean(axis=0)
        sigma2 = np.cov(other, rowvar=False) + 1e-6 * np.eye(dim)
        assert frechet_distance(mu, sigma, mu2, sigma2) > -1e-9


# ----------------------------------------------------------------------
# Replay / fault-tolerance properties
# ----------------------------------------------------------------------
from functools import lru_cache

from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MoDMConfig,
)
from repro.core.cluster_router import modm_cluster
from repro.core.serving import MoDMSystem
from repro.embedding.space import SemanticSpace
from repro.workloads import DiffusionDBConfig, diffusiondb_trace

# 10 examples under the tier-1 profile; a sixth of the profile's budget
# when that is more (50 under ci-heavy, see tests/conftest.py).
_FAST_FT = settings(
    max_examples=max(10, settings.default.max_examples // 6),
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


def _journal_config():
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
        cache_capacity=150,
        small_models=("sdxl",),
        seed="prop-replay",
        journal=JournalConfig(snapshot_period_s=40.0),
    )


def _replay_payload(report):
    times = np.sort(report.completion_times())
    return (
        report.n_completed,
        report.hit_rate,
        times.tobytes(),
        tuple(
            (r.request_id, r.decision.hit, r.decision.k_steps)
            for r in report.records
            if r.decision is not None
        ),
    )


@lru_cache(maxsize=1)
def _replay_fixture():
    """One journaled straight run shared across hypothesis examples."""
    space = SemanticSpace()
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=80,
            request_rate_per_min=40.0,
            seed="prop-replay",
        ),
    )
    straight = MoDMSystem(space, _journal_config())
    payload = _replay_payload(straight.run(trace))
    assert straight.snapshots, "trace too short for snapshot period"
    return space, trace, tuple(straight.snapshots), payload


@lru_cache(maxsize=1)
def _failure_fixture():
    space = SemanticSpace()
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=60,
            request_rate_per_min=40.0,
            seed="prop-failure",
        ),
    )
    return space, trace


class TestReplayProperties:
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @_FAST_FT
    def test_any_snapshot_resumes_bit_identically(self, fraction):
        """Restoring the run at an arbitrary snapshot and resuming is
        indistinguishable from never having stopped."""
        space, trace, snapshots, straight_payload = _replay_fixture()
        snapshot = snapshots[int(fraction * (len(snapshots) - 1))]
        resumed = MoDMSystem(space, _journal_config())
        snapshot.restore(resumed)
        assert (
            _replay_payload(resumed.resume(trace)) == straight_payload
        )

    @given(
        st.floats(min_value=0.05, max_value=0.85, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
        st.booleans(),
    )
    @_FAST_FT
    def test_kill_restart_never_loses_or_double_counts(
        self, kill_frac, delay_frac, warm
    ):
        """Whenever a replica dies (and possibly rejoins), every request
        still reaches exactly one terminal state."""
        space, trace = _failure_fixture()
        span = trace.requests[-1].arrival_s
        kill_t = max(1.0, kill_frac * span)
        restart_t = kill_t + max(1.0, delay_frac * span)
        config = MoDMConfig(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            cache_capacity=150,
            small_models=("sdxl",),
            journal=JournalConfig(snapshot_period_s=30.0),
        )
        system = modm_cluster(
            space,
            config,
            ClusterRoutingConfig(
                n_replicas=2,
                policy="cache_affinity",
                failures=FailurePlan(
                    events=(
                        FailureEvent(
                            time_s=kill_t, replica=1, action="kill"
                        ),
                        FailureEvent(
                            time_s=restart_t,
                            replica=1,
                            action="restart",
                            warm=warm,
                        ),
                    ),
                    recovery_window_s=60.0,
                ),
            ),
        )
        report = system.run(trace)
        comp = system.request_store.column("completion_s")
        shed = system.request_store.column("shed")
        completed_rows = int(np.count_nonzero(comp == comp))
        assert report.n_lost == 0
        assert report.fleet.n_completed == completed_rows
        assert not np.any(shed & (comp == comp))
        assert completed_rows + int(np.count_nonzero(shed)) == len(
            trace
        )
