"""The fault grammar meets its consumers.

Every :class:`FaultKind` a plan can carry has a plane that consumes it and
an observable that proves the consumer ran.  ``CONSUMERS`` is that table
(DESIGN §10, "consumed by"): a clock kind names the handler a plane
registers, counted here by a spy; a data kind names what the quick
``repro.scenarios`` run that injects it must show.  A clause whose kind no
plane consumes is a parse error, not a silently ignored fault.
"""

import re
from functools import lru_cache

import pytest

from repro.cli import main
from repro.core import MsaScheduler, schedule_workload, small_msa_system
from repro.core import synthetic_workload_mix
from repro.resilience import (
    DATA_FAULTS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
)
from repro.scenarios import run_scenario
from repro.serving import ServingConfig, TraceConfig, simulate_serving
from repro.serving.engine import ServingEngine

#: FaultKind -> {plane: observable}.  Clock kinds: the handler method the
#: plane registers.  Data kinds: what the elastic trainer leaves behind.
CONSUMERS = {
    FaultKind.NODE_CRASH: {"scheduler": "_on_node_crash",
                           "serving": "_on_crash"},
    FaultKind.STRAGGLER: {"scheduler": "_on_straggler"},
    FaultKind.LINK_DEGRADE: {"scheduler": "_on_link_degrade"},
    FaultKind.NETWORK_PARTITION: {"serving": "_on_partition"},
    FaultKind.GRAY_FAILURE: {"serving": "_on_gray"},
    FaultKind.RANK_KILL: {"training": "rank-kill recovery"},
    FaultKind.BITFLIP_MESSAGE: {"training": "corruptions injected"},
    FaultKind.BITFLIP_GRADIENT: {"training": "corruptions injected"},
    FaultKind.CHECKPOINT_ROT: {"training": "corruptions injected"},
}

#: The ``parse`` clause that yields one spec of each clock kind.
CLAUSES = {
    FaultKind.NODE_CRASH: "crash=esb:1",
    FaultKind.STRAGGLER: "straggler=esb:1",
    FaultKind.LINK_DEGRADE: "degrade=esb:1",
    FaultKind.NETWORK_PARTITION: "chaos=partition:1",
    FaultKind.GRAY_FAILURE: "chaos=gray:1",
}
PLANES = {"scheduler": MsaScheduler, "serving": ServingEngine}
TARGETS = {"cm": 8, "esb": 8, "dam": 2}
HORIZON_S = 4.0


def _run_plane(plane: str, plan: FaultPlan) -> None:
    if plane == "scheduler":
        schedule_workload(small_msa_system(), synthetic_workload_mix(4, 0),
                          fault_injector=FaultInjector(plan))
    else:
        simulate_serving(
            ServingConfig(trace=TraceConfig(rate_per_s=40.0,
                                            duration_s=HORIZON_S)),
            system=small_msa_system(), fault_injector=FaultInjector(plan))


@lru_cache(maxsize=None)
def _scenario(name: str):
    return run_scenario(name, seed=0, quick=True)


def _injected(kind: FaultKind) -> float:
    prom = _scenario("sdc").files["metrics.prom"]
    match = re.search(rf'^integrity_corruptions_injected\{{kind="{kind.value}"'
                      rf'\}} (\S+)$', prom, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


class TestTable:
    def test_every_kind_has_a_consumer(self):
        assert set(CONSUMERS) == set(FaultKind)
        assert all(CONSUMERS.values())

    def test_data_kinds_are_the_trainers(self):
        assert {k for k, planes in CONSUMERS.items()
                if "training" in planes} == DATA_FAULTS
        assert set(CLAUSES) == set(FaultKind) - DATA_FAULTS

    def test_every_documented_clause_yields_consumed_kinds(self):
        documented = re.findall(r"\* ``(\w+=[^`]+)``",
                                FaultPlan.parse.__doc__)
        assert {c.partition("=")[0] for c in documented} == {
            "seed", "crash", "straggler", "degrade", "bitflip", "horizon",
            "repair", "chaos"}
        for clause in documented:
            plan = FaultPlan.parse(clause, targets=TARGETS)
            assert {spec.kind for spec in plan} <= set(CONSUMERS), clause

    def test_drop_clause_is_rejected(self):
        with pytest.raises(FaultPlanError,
                           match="unknown fault clause 'drop'"):
            FaultPlan.parse("seed=1,drop=0.05", targets=TARGETS)

    def test_serve_exits_2_on_drop_clause(self, capsys):
        code = main(["serve", "--faults", "seed=1,drop=0.05",
                     "--duration", "1"])
        assert code == 2
        assert "unknown fault clause 'drop'" in capsys.readouterr().err


@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("kind", sorted(CLAUSES, key=lambda k: k.value))
def test_clock_kind_handled_or_refused(monkeypatch, plane, kind):
    """A plane listed for a clock kind calls its handler once per spec; any
    other plane refuses the plan at construction."""
    plan = FaultPlan.parse(f"seed=1,repair=2,{CLAUSES[kind]}",
                           targets=TARGETS, horizon_s=HORIZON_S)
    assert {spec.kind for spec in plan} == {kind}
    handler = CONSUMERS[kind].get(plane)
    if handler is None:
        with pytest.raises(FaultPlanError, match=kind.value):
            _run_plane(plane, plan)
        return
    calls = []
    original = getattr(PLANES[plane], handler)

    def spy(self, spec):
        calls.append(spec)
        return original(self, spec)

    monkeypatch.setattr(PLANES[plane], handler, spy)
    _run_plane(plane, plan)
    assert calls == list(plan.specs)


def test_rank_kill_recovers_the_world():
    result = _scenario("train").result
    assert "rank-kill" in {r.reason for r in result.recoveries}


@pytest.mark.parametrize("kind", [FaultKind.BITFLIP_MESSAGE,
                                  FaultKind.BITFLIP_GRADIENT,
                                  FaultKind.CHECKPOINT_ROT])
def test_corruption_kind_is_injected(kind):
    assert _injected(kind) > 0
