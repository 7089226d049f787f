"""The fault-injection layer itself: plans, the injector as simulated
events, event cancellation, degraded and unreliable links, and the
scheduler's crash/repair bookkeeping."""

import numpy as np
import pytest

from repro.core import JobStatus, schedule_workload
from repro.core.module import ClusterModule
from repro.core.hardware import DEEP_CM_NODE
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    partition_cut,
)
from repro.simnet import Link, LinkKind, Simulator, UnreliableLink
from repro.simnet.events import SimulationError


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        evt = sim.timeout(5.0, value="x")
        evt.add_callback(lambda e: fired.append(e.value))
        evt.cancel()
        sim.run()
        assert fired == []
        assert evt.cancelled

    def test_cancelled_event_not_counted_as_processed(self):
        sim = Simulator()
        evt = sim.timeout(5.0)
        keep = sim.timeout(7.0)
        evt.cancel()
        sim.run()
        assert sim.now == 7.0

    def test_cancel_after_trigger_raises(self):
        sim = Simulator()
        evt = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            evt.cancel()


class TestInjector:
    def _plan(self):
        return FaultPlan(seed=0, specs=(
            FaultSpec(kind=FaultKind.NODE_CRASH, time=10.0, module="cm",
                      node=2),
            FaultSpec(kind=FaultKind.STRAGGLER, time=20.0, module="esb",
                      node=0, magnitude=2.0),
            FaultSpec(kind=FaultKind.RANK_KILL, time=3, node=1),
        ))

    def test_faults_fire_as_simulated_events(self):
        sim = Simulator()
        injector = FaultInjector(self._plan())
        seen = []
        injector.on(FaultKind.NODE_CRASH, lambda s: seen.append((sim.now, s)))
        armed = injector.arm(sim)
        assert armed == 2          # RANK_KILL is not a clock event
        sim.run()
        assert [(t, s.kind) for t, s in injector.injected] == \
               [(10.0, FaultKind.NODE_CRASH), (20.0, FaultKind.STRAGGLER)]
        assert seen[0][0] == 10.0 and seen[0][1].node == 2

    def test_require_handlers_names_what_nobody_listens_to(self):
        inj = FaultInjector(self._plan())
        inj.on(FaultKind.NODE_CRASH, lambda spec: None)
        with pytest.raises(FaultPlanError, match="straggler"):
            inj.require_handlers("this test")
        inj.on(FaultKind.STRAGGLER, lambda spec: None)
        inj.require_handlers("this test")      # RANK_KILL is a data fault

    @pytest.mark.parametrize("clause", ["partition:1", "gray:1"])
    def test_scheduler_rejects_serving_plane_faults(self, make_small_system,
                                                    gpu_job, clause):
        plan = FaultPlan.parse(f"seed=1,chaos={clause}",
                               targets={"cm": 8, "esb": 8, "dam": 2})
        with pytest.raises(FaultPlanError, match="batch scheduler"):
            schedule_workload(make_small_system(), [gpu_job()],
                              fault_injector=FaultInjector(plan))

    def test_scheduler_accepts_data_faults(self, make_small_system, gpu_job,
                                           data_fault_plan):
        report = schedule_workload(
            make_small_system(), [gpu_job()],
            fault_injector=FaultInjector(data_fault_plan))
        assert report.job_status["train"] is JobStatus.COMPLETED
        assert report.resilience.faults_injected == []

    def test_double_arm_rejected(self):
        injector = FaultInjector(self._plan())
        injector.arm(Simulator())
        with pytest.raises(RuntimeError):
            injector.arm(Simulator())

    def test_unreliable_wraps_only_with_drop_spec(self):
        link = Link.of_kind(LinkKind.INFINIBAND_EDR)
        plain = FaultInjector(self._plan())
        assert plain.unreliable(link) is link
        droppy = FaultInjector(FaultPlan(seed=3, specs=(
            FaultSpec(kind=FaultKind.MESSAGE_DROP, time=0.0, magnitude=0.2),)))
        wrapped = droppy.unreliable(link)
        assert isinstance(wrapped, UnreliableLink)
        assert wrapped.drop_probability == 0.2


class TestLinks:
    def test_degraded_link_slower(self):
        link = Link.of_kind(LinkKind.INFINIBAND_EDR)
        slow = link.degraded(4.0)
        assert slow.bandwidth_Bps == link.bandwidth_Bps / 4.0
        assert slow.transfer_time(1 << 20) > link.transfer_time(1 << 20)
        with pytest.raises(ValueError):
            link.degraded(0.5)

    def test_unreliable_link_deterministic(self):
        link = Link.of_kind(LinkKind.ETHERNET_100G)
        a = UnreliableLink(link, drop_probability=0.3, seed=7)
        b = UnreliableLink(link, drop_probability=0.3, seed=7)
        times_a = [a.transfer_time(1 << 16) for _ in range(50)]
        times_b = [b.transfer_time(1 << 16) for _ in range(50)]
        assert times_a == times_b
        assert a.drops == b.drops

    def test_unreliable_link_costs_at_least_base(self):
        link = Link.of_kind(LinkKind.ETHERNET_100G)
        lossy = UnreliableLink(link, drop_probability=0.5, seed=1)
        base = link.transfer_time(4096)
        assert all(lossy.transfer_time(4096) >= base for _ in range(20))
        assert lossy.expected_transfer_time(4096) > base

    def test_lossless_wrapper_matches_base(self):
        link = Link.of_kind(LinkKind.INFINIBAND_HDR)
        clean = UnreliableLink(link, drop_probability=0.0, seed=0)
        assert clean.transfer_time(1 << 20) == link.transfer_time(1 << 20)
        assert clean.expected_transfer_time(1 << 20) == \
               link.transfer_time(1 << 20)


class TestCrashRepairBookkeeping:
    def test_mark_down_blocks_allocation_until_repair(self):
        module = ClusterModule("CM", DEEP_CM_NODE, 4)
        module.mark_down(1)
        assert module.down_nodes == {1}
        assert module.free_nodes == 3
        taken = module.allocate(3)
        assert 1 not in taken
        module.release(taken)
        module.mark_up(1)
        assert module.free_nodes == 4

    def test_release_of_downed_node_does_not_resurrect_it(self):
        module = ClusterModule("CM", DEEP_CM_NODE, 4)
        taken = module.allocate(2)
        module.mark_down(taken[0])
        module.release(taken)
        assert taken[0] in module.down_nodes
        assert module.free_nodes == 3

    def test_allocate_avoids_suspect_nodes_when_possible(self):
        module = ClusterModule("CM", DEEP_CM_NODE, 4)
        taken = module.allocate(2, avoid={0, 1})
        assert set(taken) == {2, 3}
        # Avoidance is a preference, not a hard constraint.
        taken2 = module.allocate(2, avoid={0, 1})
        assert set(taken2) == {0, 1}

    def test_crash_during_run_requeues_and_completes(self, make_small_system,
                                                     gpu_job):
        plan = FaultPlan(seed=0, specs=tuple(
            FaultSpec(kind=FaultKind.NODE_CRASH, time=60.0, module="esb",
                      node=n, duration=120.0) for n in range(8)))
        report = schedule_workload(make_small_system(), [gpu_job(nodes=8)],
                                   fault_injector=FaultInjector(plan))
        assert report.job_status["train"] is JobStatus.COMPLETED
        res = report.resilience
        assert len(res.failures) >= 1
        assert res.total_retries >= 1
        assert len(res.recoveries) == len(res.requeues)
        assert res.mttr_s > 0
        # Repairs returned every node to service.
        assert len(res.repairs) == 8

    def test_summary_mentions_resilience(self, make_small_system, gpu_job):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec(kind=FaultKind.NODE_CRASH, time=60.0, module="esb",
                      node=0, duration=120.0),))
        report = schedule_workload(make_small_system(), [gpu_job(nodes=8)],
                                   fault_injector=FaultInjector(plan))
        assert "faults injected" in report.summary()


class TestPlanValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.NODE_CRASH, time=-1.0)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.STRAGGLER, time=0.0, magnitude=0.5)

    def test_drop_probability_range(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MESSAGE_DROP, time=0.0, magnitude=1.0)

    def test_parse_rejects_unknown_clause(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("seed=1,explode=cm:2", targets={"cm": 8})

    def test_parse_rejects_unknown_module(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("crash=gpu:1", targets={"cm": 8})


class TestChaosGrammar:
    """The chaos= clause, its round-trip, and the partition cut."""

    TARGETS = {"cm": 8, "esb": 8}

    def test_parse_matches_constructor(self):
        parsed = FaultPlan.parse("seed=7,chaos=partition:1,gray:2",
                                 targets=self.TARGETS)
        built = FaultPlan.chaos(7, targets=self.TARGETS,
                                n_partitions=1, n_gray=2)
        assert parsed.specs == built.specs

    def test_bare_count_defaults_to_one(self):
        plan = FaultPlan.parse("seed=3,chaos=partition", targets=self.TARGETS)
        assert len(plan.of_kind(FaultKind.NETWORK_PARTITION)) == 1
        assert len(plan.of_kind(FaultKind.GRAY_FAILURE)) == 0

    def test_chaos_clause_round_trips(self):
        plan = FaultPlan.chaos(11, targets=self.TARGETS,
                               n_partitions=2, n_gray=1)
        clause = plan.chaos_clause()
        assert clause == "chaos=partition:2,gray:1"
        replayed = FaultPlan.parse(f"seed={plan.seed},{clause}",
                                   targets=self.TARGETS)
        assert replayed.specs == plan.specs

    def test_chaos_clause_empty_without_chaos(self):
        plan = FaultPlan.random(1, {"cm": 8}, n_crashes=1)
        assert plan.chaos_clause() == ""
        assert not plan.has_chaos

    def test_has_chaos_flags_either_kind(self):
        gray_only = FaultPlan.chaos(1, self.TARGETS,
                                    n_partitions=0, n_gray=1)
        partition_only = FaultPlan.chaos(1, self.TARGETS,
                                         n_partitions=1, n_gray=0)
        assert gray_only.has_chaos and partition_only.has_chaos

    def test_chaos_composes_with_crash_clauses(self):
        plan = FaultPlan.parse("seed=5,crash=cm:1,chaos=gray:1,repair=10",
                               targets=self.TARGETS)
        assert len(plan.of_kind(FaultKind.NODE_CRASH)) == 1
        gray = plan.of_kind(FaultKind.GRAY_FAILURE)
        assert len(gray) == 1
        assert gray[0].duration == 10.0

    def test_unknown_chaos_fault_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("chaos=zombie:1", targets=self.TARGETS)

    def test_windows_heal_before_horizon(self):
        plan = FaultPlan.parse("seed=9,chaos=partition:3,gray:3,horizon=100,"
                               "repair=40", targets=self.TARGETS)
        for spec in plan:
            assert spec.time + spec.duration <= 100.0

    def test_gray_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GRAY_FAILURE, time=0.0, magnitude=0.5)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GRAY_FAILURE, time=0.0,
                      magnitude=2.0, probability=1.5)

    def test_partition_spec_validation(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=0.0,
                          probability=bad)


class TestPartitionCut:
    def _spec(self, probability=0.4):
        return FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=3.0,
                         duration=1.0, probability=probability)

    def test_deterministic_and_order_independent(self):
        spec = self._spec()
        labels = [("esb", n) for n in range(8)]
        assert (partition_cut(7, spec, labels)
                == partition_cut(7, spec, reversed(labels)))

    def test_seed_changes_the_cut(self):
        spec = self._spec()
        labels = list(range(64))
        assert partition_cut(1, spec, labels) != partition_cut(2, spec, labels)

    @pytest.mark.parametrize("seed", range(30))
    def test_always_a_real_bipartition(self, seed):
        """Both sides non-empty whenever >= 2 labels exist, at extreme
        probabilities included."""
        labels = list(range(5))
        for probability in (0.01, 0.5, 0.99):
            far = partition_cut(seed, self._spec(probability), labels)
            assert 0 < len(far) < len(labels)

    def test_single_label_may_be_cut_off(self):
        far = partition_cut(0, self._spec(0.99), ["only"])
        assert far in (frozenset(), frozenset({"only"}))
