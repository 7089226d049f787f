"""Unit tests for the serving building blocks.

Trace generation, admission control, the result cache, the micro-batcher,
replica placement and the autoscaler — each exercised in isolation before
the engine tests compose them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import place_standalone, rank_placements
from repro.distributed.perfmodel import InferencePerfModel
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    ArrivalPattern,
    Autoscaler,
    AutoscalerConfig,
    BatchPolicy,
    MicroBatcher,
    ReplicaPool,
    Request,
    ResultCache,
    TokenBucket,
    TraceConfig,
    generate_trace,
)
from repro.serving.replicas import InflightBatch


def _req(req_id, arrival=0.0, key=0, model="default", budget=0.5):
    return Request(req_id=req_id, arrival_s=arrival,
                   deadline_s=arrival + budget, key=key, model=model)


# -- traces -------------------------------------------------------------------
class TestTraces:
    @pytest.mark.parametrize("pattern", list(ArrivalPattern))
    def test_same_seed_same_trace(self, pattern):
        cfg = TraceConfig(pattern=pattern, rate_per_s=40, duration_s=30,
                          seed=9)
        assert generate_trace(cfg) == generate_trace(cfg)

    def test_different_seed_different_trace(self):
        a = generate_trace(TraceConfig(seed=1))
        b = generate_trace(TraceConfig(seed=2))
        assert a != b

    @pytest.mark.parametrize("pattern", list(ArrivalPattern))
    def test_arrivals_sorted_within_horizon(self, pattern):
        cfg = TraceConfig(pattern=pattern, rate_per_s=60, duration_s=20,
                          seed=4)
        trace = generate_trace(cfg)
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert all(0 < t < cfg.duration_s for t in times)
        assert all(r.deadline_s == pytest.approx(
            r.arrival_s + cfg.slo_deadline_s) for r in trace)

    @pytest.mark.parametrize("pattern", list(ArrivalPattern))
    def test_mean_rate_near_nominal(self, pattern):
        cfg = TraceConfig(pattern=pattern, rate_per_s=100, duration_s=300,
                          seed=0)
        trace = generate_trace(cfg)
        assert len(trace) / cfg.duration_s == pytest.approx(
            cfg.rate_per_s, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        """Same mean load, heavier short-window peaks."""
        def peak_window_count(pattern):
            cfg = TraceConfig(pattern=pattern, rate_per_s=50,
                              duration_s=120, seed=3)
            times = np.array([r.arrival_s for r in generate_trace(cfg)])
            counts, _ = np.histogram(times, bins=int(cfg.duration_s))
            return counts.max()

        assert peak_window_count(ArrivalPattern.BURSTY) > \
            peak_window_count(ArrivalPattern.POISSON) * 1.5

    def test_keys_follow_popularity_skew(self):
        trace = generate_trace(TraceConfig(rate_per_s=200, duration_s=60,
                                           key_universe=64, seed=5))
        keys = [r.key for r in trace]
        top = max(set(keys), key=keys.count)
        assert keys.count(top) > len(keys) / 64 * 3   # far above uniform

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(rate_per_s=0)
        with pytest.raises(ValueError):
            TraceConfig(slo_deadline_s=0)
        with pytest.raises(ValueError):
            TraceConfig(diurnal_swing=1.0)
        with pytest.raises(ValueError):
            TraceConfig(burst_factor=0.5)


# -- admission ----------------------------------------------------------------
class TestAdmission:
    def test_token_bucket_enforces_rate(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0)
        admitted = sum(bucket.try_take(0.0) for _ in range(20))
        assert admitted == 5                       # the burst only
        assert bucket.try_take(0.1)                # one token refilled
        assert not bucket.try_take(0.1)

    def test_token_bucket_disabled(self):
        bucket = TokenBucket(rate_per_s=0.0, burst=1.0)
        assert all(bucket.try_take(0.0) for _ in range(100))

    def test_token_bucket_rejects_time_travel(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0)
        bucket.try_take(1.0)
        with pytest.raises(ValueError):
            bucket.try_take(0.5)

    def test_shed_on_queue_depth(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queue_depth=4))
        assert ctrl.decide(0.0, queue_depth=3).admitted
        decision = ctrl.decide(0.0, queue_depth=4)
        assert not decision.admitted and decision.reason == "shed"
        assert ctrl.n_shed == 1

    def test_rate_limit_reason(self):
        ctrl = AdmissionController(AdmissionPolicy(rate_limit_per_s=1.0,
                                                   burst=1.0))
        assert ctrl.decide(0.0, 0).admitted
        decision = ctrl.decide(0.0, 0)
        assert not decision.admitted and decision.reason == "rate-limited"
        assert ctrl.n_rate_limited == 1

    def test_defaults_admit_everything(self):
        ctrl = AdmissionController(AdmissionPolicy())
        assert all(ctrl.decide(0.0, depth).admitted
                   for depth in (0, 10, 10_000))


# -- result cache -------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup(7, req_id=0) == "miss"
        assert cache.complete(7, now=1.0) == []
        assert cache.lookup(7, req_id=1) == "hit"
        assert cache.hits == 1 and cache.misses == 1

    def test_coalesce_joins_inflight_key(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup(7, req_id=0) == "miss"
        assert cache.lookup(7, req_id=1) == "coalesce"
        assert cache.lookup(7, req_id=2) == "coalesce"
        assert cache.complete(7, now=1.0) == [1, 2]
        assert cache.coalesced == 2

    def test_abandon_releases_waiters_without_caching(self):
        cache = ResultCache(capacity=4)
        cache.lookup(7, req_id=0)
        cache.lookup(7, req_id=1)
        assert cache.abandon(7) == [1]
        assert cache.lookup(7, req_id=2) == "miss"   # nothing was cached

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        for key in (1, 2):
            cache.lookup(key, req_id=key)
            cache.complete(key, now=0.0)
        cache.lookup(1, req_id=10)                    # refresh key 1
        cache.lookup(3, req_id=11)
        cache.complete(3, now=0.0)                    # evicts key 2
        assert cache.lookup(2, req_id=12) == "miss"
        assert cache.lookup(1, req_id=13) == "hit"
        assert cache.evictions == 1

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        assert cache.lookup(7, req_id=0) == "miss"
        cache.complete(7, now=0.0)
        assert cache.lookup(7, req_id=1) == "miss"
        assert cache.hit_rate == 0.0


# -- micro-batcher ------------------------------------------------------------
class TestMicroBatcher:
    def test_full_batch_dispatches_immediately(self):
        b = MicroBatcher(BatchPolicy(max_batch_requests=3, max_wait_s=1.0))
        for i in range(2):
            b.enqueue(_req(i), now=0.0)
        assert b.ready_model(0.0) is None             # not full, not old
        b.enqueue(_req(2), now=0.0)
        assert b.ready_model(0.0) == "default"
        assert [r.req_id for r in b.take("default")] == [0, 1, 2]

    def test_timeout_dispatches_partial_batch(self):
        b = MicroBatcher(BatchPolicy(max_batch_requests=8, max_wait_s=0.01))
        b.enqueue(_req(0), now=0.0)
        assert b.ready_model(0.005) is None
        assert b.next_deadline() == pytest.approx(0.01)
        assert b.ready_model(0.01) == "default"

    def test_models_never_mix(self):
        b = MicroBatcher(BatchPolicy(max_batch_requests=4, max_wait_s=0.0))
        b.enqueue(_req(0, model="a"), now=0.0)
        b.enqueue(_req(1, model="b"), now=0.0)
        batch = b.take(b.ready_model(0.0))
        assert len({r.model for r in batch}) == 1

    def test_deepest_queue_wins(self):
        b = MicroBatcher(BatchPolicy(max_batch_requests=8, max_wait_s=0.0))
        b.enqueue(_req(0, model="a"), now=0.0)
        for i in range(1, 4):
            b.enqueue(_req(i, model="b"), now=0.0)
        assert b.ready_model(0.0) == "b"

    def test_requeue_front_preserves_order_and_ships_first(self):
        b = MicroBatcher(BatchPolicy(max_batch_requests=2, max_wait_s=10.0))
        b.enqueue(_req(5, arrival=1.0), now=1.0)
        b.requeue_front([_req(1, arrival=0.1), _req(2, arrival=0.2)])
        # Drained work keeps its original arrival, so it is instantly ready.
        assert b.ready_model(1.0) == "default"
        assert [r.req_id for r in b.take("default")] == [1, 2]
        assert b.depth == 1

    def test_take_empty_raises(self):
        b = MicroBatcher(BatchPolicy())
        with pytest.raises(ValueError):
            b.take("default")

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["enqueue", "requeue_front", "take"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=1, max_value=5)), max_size=40))
    def test_depth_counter_equals_the_sum_over_queues(self, ops):
        b = MicroBatcher(BatchPolicy(max_batch_requests=3))
        models = ("a", "b", "c")
        next_id = 0
        for op, model, n in ops:
            reqs = [_req(next_id + i, model=model) for i in range(n)]
            next_id += n
            if op == "enqueue":
                for r in reqs:
                    b.enqueue(r, now=0.0)
            elif op == "requeue_front":
                b.requeue_front(reqs)
            elif b.depth_of(model):
                queued = b.depth_of(model)
                assert len(b.take(model)) == min(3, queued)
            assert b.depth == sum(b.depth_of(m) for m in models)


# -- placement ----------------------------------------------------------------
class TestPlacement:
    def test_ranking_prefers_the_booster(self, small_system):
        phase = InferencePerfModel().as_phase(64)
        ranked = rank_placements(small_system, phase)
        assert ranked[0][1] == "esb"         # V100s + scale-out headroom
        assert ranked[1][1] == "dam"         # same GPU, tiny module
        assert ranked[-1][1] == "cm"         # CPU fallback

    def test_overflow_cascades_to_slower_modules(self, small_system):
        phase = InferencePerfModel().as_phase(64)
        seen = []
        for _ in range(small_system.total_nodes):
            placed = place_standalone(small_system, phase)
            if placed is None:
                break
            seen.append(placed[0])
        assert seen[:8] == ["esb"] * 8       # booster fills first
        assert set(seen[8:10]) == {"dam"}
        assert set(seen[10:]) == {"cm"}

    def test_suspect_nodes_avoided(self, small_system):
        phase = InferencePerfModel().as_phase(64)
        suspect = {"esb": {0, 1, 2}}
        placed = place_standalone(small_system, phase, suspect=suspect)
        assert placed is not None
        key, nodes = placed
        assert key == "esb" and not (set(nodes) & suspect["esb"])

    def test_pool_crash_releases_surviving_nodes(self, small_system):
        pool = ReplicaPool(small_system, InferencePerfModel(),
                           nodes_per_replica=2)
        replica = pool.place(now=0.0)
        esb = small_system.module("esb")
        free_before = esb.free_nodes
        esb.mark_down(replica.nodes[0])
        drained = pool.crash(replica, replica.nodes[0], now=1.0)
        assert drained == []                  # replica was idle
        # One node is down, the other returned to the pool.
        assert esb.free_nodes == free_before + 1
        assert replica.nodes[0] in pool.suspect["esb"]


    def test_dispatch_order_tracks_place_retire_crash(self, small_system):
        """``idle_replicas`` filters an order kept across calls; it must
        equal the sort-on-every-call definition it replaced (and
        ``retirement_candidate`` its mirror image) whatever the pool did."""
        pool = ReplicaPool(small_system, InferencePerfModel())

        def check():
            idle = [r for r in pool.replicas.values() if r.idle]
            assert pool.idle_replicas() == sorted(
                idle, key=lambda r: (r.sample_time_s, r.rid))
            want = min(idle, key=lambda r: (-r.sample_time_s, -r.rid),
                       default=None)
            assert pool.retirement_candidate() is want

        check()                               # empty pool
        placed = [pool.place(now=0.0) for _ in range(12)]   # esb, dam, cm
        assert len({r.module_key for r in placed}) == 3
        check()
        for r in placed[::3]:
            r.inflight = InflightBatch(requests=[], start=0.0)
        check()
        pool.retire(placed[1], now=1.0)
        check()
        victim = placed[0]                    # busy, on the booster
        small_system.module(victim.module_key).mark_down(victim.nodes[0])
        pool.crash(victim, victim.nodes[0], now=2.0)
        check()
        placed[3].inflight = None
        pool.place(now=3.0)
        check()


# -- autoscaler ---------------------------------------------------------------
class TestAutoscaler:
    CFG = AutoscalerConfig(min_replicas=1, max_replicas=4, max_step_up=2)

    def test_tops_up_below_minimum(self):
        delta, reason = Autoscaler(self.CFG).decide(0.0, 0, 0, [], 0.5)
        assert (delta, reason) == (1, "below-min")

    def test_scales_up_on_deep_queue(self):
        delta, reason = Autoscaler(self.CFG).decide(0.0, 1, 20, [], 0.5)
        assert delta == 2 and reason == "queue-depth"

    def test_scales_up_on_tail_latency(self):
        window = [0.49] * 50
        delta, reason = Autoscaler(self.CFG).decide(0.0, 1, 0, window, 0.5)
        assert delta > 0 and reason == "p99"

    def test_respects_max_replicas(self):
        delta, _ = Autoscaler(self.CFG).decide(0.0, 4, 100, [], 0.5)
        assert delta == 0

    def test_scales_down_when_idle_and_fast(self):
        window = [0.01] * 50
        delta, reason = Autoscaler(self.CFG).decide(0.0, 3, 0, window, 0.5)
        assert (delta, reason) == (-1, "idle")

    def test_holds_at_minimum(self):
        window = [0.01] * 50
        delta, _ = Autoscaler(self.CFG).decide(0.0, 1, 0, window, 0.5)
        assert delta == 0

    def test_no_scale_down_without_evidence(self):
        delta, _ = Autoscaler(self.CFG).decide(0.0, 3, 0, [], 0.5)
        assert delta == 0
