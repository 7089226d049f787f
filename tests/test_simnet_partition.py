"""Partition plumbing: the window arithmetic and the serving engine's
stall-to-heal response hold, the one consumer of NETWORK_PARTITION.

The contract under test is TCP-over-a-partition semantics: a response
computed on the far side of an active cut is *delayed to heal time plus a
retransmission burst*, never silently dropped — the structural half of the
chaos drill's zero-loss invariant.
"""

import pytest

from repro.core import small_msa_system
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.serving import ServingConfig, TraceConfig
from repro.serving.engine import _PARTITION_RETRANSMIT_S, ServingEngine
from repro.serving.replicas import Replica
from repro.simnet.link import PartitionWindow
from tests.test_simnet_events import run_until


class TestPartitionWindow:
    def test_active_is_half_open(self):
        window = PartitionWindow(start_s=2.0, end_s=5.0)
        assert not window.active(1.999)
        assert window.active(2.0)
        assert window.active(4.999)
        assert not window.active(5.0)       # heal instant is healthy

    def test_delay_until_heal(self):
        window = PartitionWindow(start_s=2.0, end_s=5.0)
        assert window.delay_until_heal(1.0) == 0.0
        assert window.delay_until_heal(3.0) == 2.0
        assert window.delay_until_heal(5.0) == 0.0

    def test_rejects_backwards_window(self):
        with pytest.raises(ValueError):
            PartitionWindow(start_s=5.0, end_s=2.0)

    def test_empty_window_is_never_active(self):
        window = PartitionWindow(start_s=3.0, end_s=3.0)
        assert not window.active(3.0)
        assert window.delay_until_heal(3.0) == 0.0


class TestServingResponseHold:
    """Two overlapping NETWORK_PARTITION windows, [1, 4) and [3, 6).

    At seed 0 with far-side fraction 0.9 the cuts are: ``esb:0`` (where
    the first replica lands) far in both, ``esb:4`` far in the first only,
    ``dam:0`` far in the second only.
    """

    PLAN = FaultPlan(seed=0, specs=(
        FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=1.0, duration=3.0,
                  probability=0.9),
        FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=3.0, duration=3.0,
                  probability=0.9),
    ))
    R = _PARTITION_RETRANSMIT_S

    def _engine(self):
        return ServingEngine(
            ServingConfig(trace=TraceConfig(rate_per_s=50.0, duration_s=8.0)),
            system=small_msa_system(),
            fault_injector=FaultInjector(self.PLAN))

    def _opened(self):
        engine = self._engine()
        run_until(engine.sim, 3.0)           # both windows are open now
        (w1, far1), (w2, far2) = engine._partitions
        assert (w1, w2) == (PartitionWindow(1.0, 4.0),
                            PartitionWindow(3.0, 6.0))
        assert "esb:0" in far1 & far2
        assert "esb:4" in far1 - far2 and "dam:0" in far2 - far1
        return engine

    @staticmethod
    def _replica(engine, label):
        key, _, node = label.partition(":")
        return Replica(rid=-1, module_key=key, nodes=(int(node),),
                       node_spec=engine.system.module(key).node_spec,
                       sample_time_s=0.0, started_at=0.0)

    def test_overlapping_windows_iterate_to_fixed_point(self):
        """A response held past one cut may land inside the next; it must
        be pushed past every window it encounters."""
        engine = self._opened()
        hold = engine._response_hold(self._replica(engine, "esb:0"), 2.0)
        # 2.0 -> 4.001 (first heal + burst, inside window two) -> 6.001.
        assert 2.0 + hold == pytest.approx(6.0 + self.R)
        assert hold > (4.0 - 2.0) + self.R
        # Cut by the first window only: one stall, then it lands.
        assert engine._response_hold(
            self._replica(engine, "esb:4"), 2.0) == (4.0 - 2.0) + self.R
        # Cut by the second window only, which opens at 3.0.
        dam = self._replica(engine, "dam:0")
        assert engine._response_hold(dam, 2.0) == 0.0
        assert 3.5 + engine._response_hold(dam, 3.5) == \
            pytest.approx(6.0 + self.R)

    def test_no_response_is_ever_dropped(self):
        """Every hold is finite and lands where no window cuts the
        replica; a full run completes every admitted request."""
        engine = self._opened()
        labels = [f"{key}:{n}"
                  for key, module in engine.system.compute_modules().items()
                  for n in range(module.n_nodes)]
        for label in labels:
            replica = self._replica(engine, label)
            for i in range(20):
                done = 0.4 * i
                landed = done + engine._response_hold(replica, done)
                assert done <= landed < float("inf")
                assert not any(w.active(landed) and label in far
                               for w, far in engine._partitions)
        report = self._engine().run()
        assert report.partition_windows == 2
        assert report.held_responses > 0
        assert report.metrics.completed == report.metrics.admitted > 0
