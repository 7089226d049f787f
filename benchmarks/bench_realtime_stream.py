"""E13 — Fig. 3 A: '(near) real-time processing in case of earth disasters'.

A Poisson scene stream served by an ESB inference pool on the DES engine:
latency percentiles vs offered load, and the provisioning answer — how many
nodes keep p99 under a disaster-response deadline as the scene rate grows.
"""

import pytest

from repro.core.streaming import (
    StreamingConfig,
    capacity_for_deadline,
    simulate_stream,
)

from conftest import emit_table


def test_latency_vs_load():
    def sweep():
        rows = []
        for rate in (2.0, 6.0, 10.0, 14.0):
            config = StreamingConfig(
                arrival_rate_per_s=rate, service_time_s=0.5,
                n_servers=8, duration_s=1500.0, seed=0)
            report = simulate_stream(config)
            rows.append([
                f"{rate:.0f}",
                f"{config.offered_load:.2f}",
                f"{report.p50:.2f}",
                f"{report.p99:.2f}",
                f"{report.utilisation:.2f}",
                report.max_queue_depth,
            ])
        return rows

    rows = sweep()
    emit_table("E13/Fig. 3 A — scene stream on 8 ESB nodes "
               "(0.5 s/scene inference)",
               ["scenes/s", "ρ", "p50 s", "p99 s", "util", "max queue"],
               rows)

    p99s = [float(r[3]) for r in rows]
    assert p99s == sorted(p99s)                 # latency grows with load
    assert p99s[0] < 1.0                        # light load ≈ service time
    assert p99s[-1] > p99s[0] * 2               # saturation hurts


def test_capacity_planning_for_deadline():
    deadline = 2.0     # seconds from scene arrival to classification

    def plan():
        rows = []
        for rate in (4.0, 8.0, 16.0):
            n, report = capacity_for_deadline(
                arrival_rate_per_s=rate, service_time_s=0.5,
                deadline_s=deadline, duration_s=800.0)
            rows.append([f"{rate:.0f}", n, f"{report.p99:.2f}",
                         f"{report.utilisation:.2f}"])
        return rows

    rows = plan()
    emit_table(f"E13 — minimal ESB nodes for p99 ≤ {deadline:.0f} s",
               ["scenes/s", "nodes", "p99 s", "util"], rows)

    nodes = [int(r[1]) for r in rows]
    assert nodes == sorted(nodes)               # capacity grows with rate
    assert all(float(r[2]) <= deadline for r in rows)
