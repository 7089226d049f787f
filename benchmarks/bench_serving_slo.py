"""E14 — online serving: SLO capacity, module-aware autoscaling, failover.

Three views of the serving subsystem on the small MSA testbed:

* the **capacity surface** — p99 and goodput over arrival rate × fixed
  replica count, showing where each pool size falls over its SLO cliff,
* the **capacity point** — the minimal fixed pool holding p99 under the
  deadline at each rate,
* **autoscaling vs fixed** — the headline claim: at a rate where one
  pinned replica blows the deadline by orders of magnitude, the
  autoscaler meets it with the same hardware pool.
"""

from repro.serving import (
    AutoscalerConfig,
    ServingConfig,
    TraceConfig,
    simulate_serving,
)

from conftest import emit_table

#: Heavy requests (32-patch scenes) put the ESB capacity knee near 95 req/s
#: per replica — low enough to sweep past with small traces.
SAMPLES_PER_REQUEST = 32
SLO_DEADLINE_S = 0.5


def _run(rate, replicas, duration_s=30.0, autoscale=False, max_replicas=8,
         seed=0):
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=rate, duration_s=duration_s,
                          slo_deadline_s=SLO_DEADLINE_S,
                          samples_per_request=SAMPLES_PER_REQUEST,
                          seed=seed, key_universe=1 << 20),
        autoscaler=AutoscalerConfig(enabled=autoscale,
                                    min_replicas=replicas if autoscale else 1,
                                    max_replicas=max_replicas),
        initial_replicas=replicas,
    )
    return simulate_serving(config)


def sweep_capacity_surface(rates, replica_counts, duration_s=30.0):
    rows = []
    for rate in rates:
        for n in replica_counts:
            rep = _run(rate, n, duration_s=duration_s)
            rows.append([
                f"{rate:.0f}", n,
                f"{rep.p99 * 1e3:.1f}",
                f"{rep.goodput_per_s:.1f}",
                f"{rep.metrics.deadline_miss_rate:.3f}",
                "yes" if rep.meets_slo() else "NO",
            ])
    return rows


def capacity_points(rates, max_replicas=8, duration_s=30.0):
    rows = []
    for rate in rates:
        for n in range(1, max_replicas + 1):
            rep = _run(rate, n, duration_s=duration_s)
            if rep.meets_slo():
                rows.append([f"{rate:.0f}", n, f"{rep.p99 * 1e3:.1f}",
                             f"{rep.goodput_per_s:.1f}"])
                break
        else:
            rows.append([f"{rate:.0f}", f">{max_replicas}", "-", "-"])
    return rows


def autoscale_vs_fixed(rate, duration_s=40.0):
    fixed = _run(rate, 1, duration_s=duration_s, autoscale=False)
    auto = _run(rate, 1, duration_s=duration_s, autoscale=True)
    rows = [
        ["fixed x1", f"{fixed.p99 * 1e3:.1f}",
         f"{fixed.goodput_per_s:.1f}", fixed.metrics.deadline_misses,
         fixed.peak_replicas, "yes" if fixed.meets_slo() else "NO"],
        ["autoscaled", f"{auto.p99 * 1e3:.1f}",
         f"{auto.goodput_per_s:.1f}", auto.metrics.deadline_misses,
         auto.peak_replicas, "yes" if auto.meets_slo() else "NO"],
    ]
    return fixed, auto, rows


SURFACE_HEADER = ["req/s", "replicas", "p99 ms", "goodput/s", "miss rate",
                  "meets SLO"]
POINT_HEADER = ["req/s", "min replicas", "p99 ms", "goodput/s"]
VS_HEADER = ["pool", "p99 ms", "goodput/s", "misses", "peak", "meets SLO"]


def test_capacity_surface():
    rows = sweep_capacity_surface((60.0, 120.0, 240.0), (1, 2, 4))
    emit_table(f"E14 — serving capacity surface "
               f"(p99 SLO {SLO_DEADLINE_S * 1e3:.0f} ms, "
               f"{SAMPLES_PER_REQUEST}-patch scenes)",
               SURFACE_HEADER, rows)

    by_cell = {(r[0], r[1]): r for r in rows}
    # More replicas never hurt the tail at a given rate...
    for rate in ("60", "120", "240"):
        p99s = [float(by_cell[(rate, n)][2]) for n in (1, 2, 4)]
        assert p99s[0] >= p99s[-1]
    # ...and a single replica cannot carry the heaviest rate.
    assert by_cell[("240", 1)][5] == "NO"
    assert by_cell[("240", 4)][5] == "yes"


def test_capacity_point():
    rows = capacity_points((60.0, 120.0, 240.0))
    emit_table(f"E14 — minimal replicas for p99 ≤ "
               f"{SLO_DEADLINE_S * 1e3:.0f} ms", POINT_HEADER, rows)

    needed = [int(r[1]) for r in rows]
    assert needed == sorted(needed)             # capacity grows with rate
    assert needed[-1] > needed[0]               # the sweep spans the knee


def test_autoscale_beats_fixed():
    fixed, auto, rows = autoscale_vs_fixed(150.0)
    emit_table("E14 — autoscaled pool vs pinned single replica at 150 req/s",
               VS_HEADER, rows)

    # The acceptance claim: same hardware, same trace — the fixed pool
    # misses the deadline, the autoscaled pool meets it.
    assert not fixed.meets_slo()
    assert auto.meets_slo()
    assert auto.goodput_per_s > fixed.goodput_per_s * 2
    assert auto.peak_replicas > 1
