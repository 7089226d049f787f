"""The fault-injection layer itself: plans, the injector as simulated
events, event cancellation, degraded links, and the scheduler's
crash/repair bookkeeping."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import JobStatus, deep_system, schedule_workload
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
from repro.simnet import Link, LinkKind, Simulator
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
        assert evt._cancelled

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

    def test_parse_rejects_unknown_clause(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("seed=1,explode=cm:2", targets={"cm": 8})

    def test_parse_rejects_unknown_module(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("crash=gpu:1", targets={"cm": 8})

    def test_parse_checks_every_module_against_its_targets(self):
        # Targets are required, and an empty map knows no module.
        with pytest.raises(TypeError):
            FaultPlan.parse("crash=cm:1")
        with pytest.raises(FaultPlanError, match="unknown module 'cm'"):
            FaultPlan.parse("crash=cm:1", targets={})


class TestChaosGrammar:
    """The chaos= clause: grammar, composition and its pinned draws."""

    TARGETS = {"cm": 8, "esb": 8}

    #: ``(kind, time, module, node, duration, magnitude, probability)`` of
    #: every spec, in plan order, for four plans at horizon 100 s.
    PINNED = {
        "seed=11,chaos=partition:2,gray:3": (
            ("GRAY_FAILURE", 6.608083201700571, "cm", 6, 600.0,
             4.387818509817729, 0.718957868678263),
            ("NETWORK_PARTITION", 9.507418464558071, "", -1, 600.0, 1.0,
             0.38954150717847286),
            ("GRAY_FAILURE", 33.6001451806931, "cm", 1, 600.0,
             4.636420971840023, 0.3298258543555949),
            ("NETWORK_PARTITION", 34.492368963531206, "", -1, 600.0, 1.0,
             0.3595618651180488),
            ("GRAY_FAILURE", 34.85357565182191, "esb", 7, 600.0,
             4.187830537581, 0.5624691340524345),
        ),
        "seed=4,chaos=gray": (
            ("GRAY_FAILURE", 5.246639243601408, "cm", 6, 600.0,
             5.9313882992594635, 0.5675475595424612),
        ),
        "seed=5,crash=cm:2,chaos=partition:1,gray:1,repair=10": (
            ("NODE_CRASH", 2.9140540764785117, "cm", 2, 10.0, 1.0, 1.0),
            ("GRAY_FAILURE", 22.97198152458577, "esb", 4, 10.0,
             5.613476772286241, 0.48908261699822975),
            ("NETWORK_PARTITION", 27.094352177324566, "", -1, 10.0, 1.0,
             0.268179489462242),
            ("NODE_CRASH", 29.64817463920265, "cm", 2, 10.0, 1.0, 1.0),
        ),
        "seed=3,crash=esb:1,straggler=cm:2,degrade=esb:1,repair=60": (
            ("STRAGGLER", 2.382335389300938, "cm", 6, 60.0,
             1.0208166811974593, 1.0),
            ("LINK_DEGRADE", 24.96370217356172, "esb", -1, 60.0,
             2.8229077191370333, 1.0),
            ("STRAGGLER", 44.20947359652768, "cm", 6, 60.0,
             1.5695163725064094, 1.0),
            ("NODE_CRASH", 83.70320691263561, "esb", 2, 60.0, 1.0, 1.0),
        ),
    }

    @pytest.mark.parametrize("text", list(PINNED),
                             ids=["partition-and-gray", "bare-gray",
                                  "after-crash", "node-faults"])
    def test_chaos_draws_are_pinned(self, text):
        """Every RNG draw of a plan — value and order — is fixed: a plan
        replays across versions."""
        plan = FaultPlan.parse(text, targets=self.TARGETS, horizon_s=100.0)
        assert tuple((s.kind.name, s.time, s.module, s.node, s.duration,
                      s.magnitude, s.probability)
                     for s in plan) == self.PINNED[text]

    def test_bare_count_defaults_to_one(self):
        plan = FaultPlan.parse("seed=3,chaos=partition", targets=self.TARGETS)
        assert len(plan.of_kind(FaultKind.NETWORK_PARTITION)) == 1
        assert len(plan.of_kind(FaultKind.GRAY_FAILURE)) == 0

    def test_chaos_composes_with_crash_clauses(self):
        plan = FaultPlan.parse("seed=5,crash=cm:1,chaos=gray:1,repair=10",
                               targets=self.TARGETS)
        assert len(plan.of_kind(FaultKind.NODE_CRASH)) == 1
        gray = plan.of_kind(FaultKind.GRAY_FAILURE)
        assert len(gray) == 1
        assert gray[0].duration == 10.0

    @pytest.mark.parametrize("clause", [
        "crash=esb:-1", "chaos=gray:-1", "horizon=-10", "horizon=nan",
        "repair=-1", "bitflip=2"])
    def test_out_of_range_clause_is_a_plan_error(self, clause, capsys):
        text = f"seed=1,{clause}"
        with pytest.raises(FaultPlanError, match=re.escape(repr(clause))):
            FaultPlan.parse(text, targets=self.TARGETS)
        # The serving front end turns it into a usage error, not a crash.
        assert main(["serve", "--duration", "1", "--faults", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --faults: ") and clause in err

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


#: One fault clause per (name, module) the grammar has, without its count.
CLAUSE_SLOTS = ("crash=cm", "crash=esb", "straggler=cm", "straggler=esb",
                "degrade=cm", "degrade=esb", "chaos=partition", "chaos=gray",
                "bitflip")


@st.composite
def disjoint_clauses(draw):
    """Two lists of fault clauses, ``A`` and ``B``, naming different
    clauses."""
    slots = draw(st.permutations(CLAUSE_SLOTS))
    n_a = draw(st.integers(0, len(slots)))
    n_b = draw(st.integers(0, len(slots) - n_a))

    def render(slot: str) -> str:
        if slot == "bitflip":
            return "bitflip=0.01"
        return f"{slot}:{draw(st.integers(0, 3))}"

    return ([render(s) for s in slots[:n_a]],
            [render(s) for s in slots[n_a:n_a + n_b]])


class TestClauseIndependence:
    """Each fault clause draws from a stream of its own: adding clauses to
    a plan, before or after, re-draws none of the faults already in it."""

    TARGETS = {"cm": 8, "esb": 8}

    def check(self, seed: int, a: list[str], b: list[str]) -> None:
        def parse(clauses):
            return Counter(FaultPlan.parse(
                ",".join([f"seed={seed}", *clauses]), targets=self.TARGETS,
                horizon_s=100.0).specs)

        alone = parse(a)
        assert not alone - parse(a + b)
        assert not alone - parse(b + a)

    @given(seed=st.integers(0, 2 ** 32), clauses=disjoint_clauses())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_adding_clauses_redraws_none(self, seed, clauses):
        self.check(seed, *clauses)

    @pytest.mark.slow
    @given(seed=st.integers(0, 2 ** 32), clauses=disjoint_clauses())
    @settings(max_examples=2000, deadline=None)
    def test_adding_clauses_redraws_none_sweep(self, seed, clauses):
        self.check(seed, *clauses)

    def test_a_crash_clause_keeps_the_partition(self):
        """A partition does not move when a crash joins it on DEEP, the
        system ``repro serve`` runs."""
        targets = {key: module.n_nodes
                   for key, module in deep_system().compute_modules().items()}

        def partitions(text):
            plan = FaultPlan.parse(text, targets=targets, horizon_s=60.0)
            return plan.of_kind(FaultKind.NETWORK_PARTITION)

        alone = partitions("seed=1,chaos=partition:1")
        assert len(alone) == 1
        assert partitions("seed=1,crash=esb:1,chaos=partition:1") == alone

    def test_repeated_clauses_draw_apart(self):
        """The second clause of one name and module is keyed by its
        position, so it adds faults rather than repeating the first's."""
        once = FaultPlan.parse("seed=2,crash=cm:1", targets=self.TARGETS)
        twice = FaultPlan.parse("seed=2,crash=cm:1,crash=cm:1",
                                targets=self.TARGETS)
        assert len(set(twice.specs)) == 2
        assert set(once.specs) < set(twice.specs)


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
