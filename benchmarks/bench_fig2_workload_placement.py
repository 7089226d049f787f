"""E2 — Fig. 2: heterogeneous workloads on MSA vs homogeneous systems.

The MSA claim: 'each application and its parts can be run on an exactly
matching system, improving time to solution and energy use'.  We schedule
the same Fig.-2-class workload mix on (a) an MSA (CM+ESB+DAM), (b) a
cluster-only system, (c) a booster-only system of equal node count, and
report makespan / turnaround / energy.
"""

import pytest

from repro.core import (
    BoosterModule,
    ClusterModule,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    MSASystem,
    StorageModule,
    homogeneous_system,
    schedule_workload,
    synthetic_workload_mix,
)
from conftest import emit_table

N_NODES = 141   # 64 CM + 61 ESB + 16 DAM, matched in every baseline


def build_msa() -> MSASystem:
    sys = MSASystem("MSA")
    sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 64))
    sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 61))
    sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 16))
    sys.add_module("sssm", StorageModule("SSSM", capacity_PB=2.0))
    return sys


def jobs():
    return synthetic_workload_mix(n_jobs=18, seed=7, mean_interarrival_s=120.0)


def _row(name, report):
    return [name, f"{report.makespan / 3600:.1f}",
            f"{report.mean_turnaround / 3600:.1f}",
            f"{report.energy_kwh:.0f}",
            f"{report.energy_busy_joules / 3.6e6:.0f}"]


def test_fig2_msa_vs_homogeneous():
    msa_report = schedule_workload(build_msa(), jobs())
    cluster = schedule_workload(
        homogeneous_system("cluster-only", DEEP_CM_NODE, N_NODES), jobs())
    booster = schedule_workload(
        homogeneous_system("booster-only", DEEP_ESB_NODE, N_NODES,
                           as_booster=True), jobs())

    rows = [_row("MSA", msa_report), _row("cluster-only", cluster),
            _row("booster-only", booster)]
    emit_table(
        "E2/Fig. 2 — mixed workload, equal node counts",
        ["system", "makespan h", "turnaround h", "energy kWh", "busy kWh"],
        rows)

    # The paper's shape: MSA wins both time-to-solution and energy.
    assert msa_report.makespan < cluster.makespan
    assert msa_report.makespan < booster.makespan
    assert msa_report.energy_total_joules < cluster.energy_total_joules
    assert msa_report.mean_turnaround < cluster.mean_turnaround
    assert msa_report.mean_turnaround < booster.mean_turnaround


def test_fig2_per_class_placement():
    """Each Fig. 2 workload class lands on its matching module."""
    report = schedule_workload(build_msa(), jobs())
    by_class: dict = {}
    job_list = jobs()
    phase_class = {
        (j.name, p.name): p.workload.value for j in job_list for p in j.phases
    }
    for alloc in report.allocations:
        cls = phase_class[(alloc.job_name, alloc.phase_name)]
        by_class.setdefault(cls, []).append(alloc.module_key)
    rows = []
    for cls, modules in sorted(by_class.items()):
        top = max(set(modules), key=modules.count)
        rows.append([cls, top,
                     f"{modules.count(top)}/{len(modules)}"])
    emit_table("E2 — dominant module per workload class",
               ["workload class", "module", "share"], rows)

    placement = {cls: max(set(mods), key=mods.count)
                 for cls, mods in by_class.items()}
    assert placement["simulation-lowscale"] == "cm"
    assert placement["data-analytics"] == "dam"
    assert placement["ml-training"] in ("esb", "dam")
    assert placement["simulation-highscale"] == "esb"


def test_fig2_matchmaking_vs_first_fit():
    """Ablation: the matchmaking policy itself is load-bearing."""
    from repro.core import PlacementPolicy

    match = schedule_workload(build_msa(), jobs())
    naive = schedule_workload(build_msa(), jobs(),
                              placement=PlacementPolicy.FIRST_FIT)
    rows = [
        ["matchmaking", f"{match.makespan / 3600:.1f}",
         f"{match.energy_kwh:.0f}"],
        ["first-fit", f"{naive.makespan / 3600:.1f}",
         f"{naive.energy_kwh:.0f}"],
    ]
    emit_table("E2 ablation — placement policy on the same MSA",
               ["policy", "makespan h", "energy kWh"], rows)
    assert match.makespan < naive.makespan
