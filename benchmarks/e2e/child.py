"""One workload, measured in its own interpreter.

``run.py`` starts this file once per measurement so workloads never
share a heap, an import cache or a warmed allocator.  The last line of
standard output is one JSON object; everything above it is for people.

Untraced (``--trace 0``): one discarded warm-up pass, then timed passes
back to back — a closed loop with one client and fixed work per pass —
until ``--seconds`` have been measured.  Traced (``--trace 1``): warm-up,
untraced passes for the baseline wall, one pass inside
``telemetry.capture()``, then passes with the span recorder installed.

Every untraced pass is bracketed by slices of the calibration kernel
(``calibrate.py``); ``ops_per_s``, ``step_p50_ms`` and ``setup_s`` are
reported at reference host speed, the raw rate and the host speed beside
them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()          # setup_s counts the imports below

import argparse                    # noqa: E402
import gc                          # noqa: E402
import json                        # noqa: E402
import os                          # noqa: E402
import resource                    # noqa: E402
import sys                         # noqa: E402
from statistics import median      # noqa: E402
from pathlib import Path           # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Timed passes an untraced run never goes below (a quartile needs them).
MIN_PASSES = 5
#: Untraced passes of a traced run: enough per-op samples (5 x 40) for a
#: p95 under the ten-samples-beyond rule.
TRACE_BASE_PASSES = 5
#: Passes run inside ``telemetry.capture()``; the fastest is compared.
CAPTURE_PASSES = 3
#: Share of ``--seconds`` a traced run spends on its untraced baseline
#: and on its traced passes.
TRACE_BASE_SHARE, TRACE_SPAN_SHARE = 0.45, 0.30
#: Calibration slices after setup and between two passes (a slice is
#: ~35 ms on the reference box), and discarded ones that warm the kernel.
CAL_SLICES, CAL_WARM_SLICES = 2, 2


class Pass(NamedTuple):
    wall: float        # host seconds of the timed region
    outcome: Any       # workloads.Outcome
    speed: float       # host speed around the pass (1.0 = reference box)


def pin_to_one_cpu() -> None:
    """Run on one CPU (the last this process may use).

    The SPMD workloads run two rank threads that share the interpreter
    lock; spread over two cores they hand it back and forth across cores,
    which on the reference box is 2.3x slower than time-slicing one core
    and swings by 25 % with what else the host runs.  One core measures
    the CPU cost of the work and keeps a busy neighbour core out of it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index``: ``--seed`` itself for pass 0, else a seed
    derived from both, so neighbouring ``--seed`` values share no pass."""
    if index == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def timed_pass(workload, ctx, seed: int, index: int, run=None):
    """One pass: inputs built and garbage collected outside the timed
    region.  ``run`` replaces ``workload.run`` (the traced run's wrapper)."""
    inputs = workload.prepare(ctx, pass_seed(seed, index))
    gc.collect()
    t0 = time.perf_counter()
    outcome = (run or workload.run)(ctx, inputs)
    return time.perf_counter() - t0, outcome


def run_passes(workload, ctx, cal, seed: int, seconds: float,
               min_passes: int, vary: bool, run=None) -> list[Pass]:
    """Passes until ``seconds`` of pass wall and calibration are measured
    (and at least ``min_passes``), each between two calibration samples."""
    import calibrate

    passes = []
    clock = time.perf_counter
    t0 = clock()
    before = cal.sample(CAL_SLICES)
    measured = clock() - t0
    while len(passes) < min_passes or measured < seconds:
        index = len(passes) if vary else 0
        wall, outcome = timed_pass(workload, ctx, seed, index, run)
        t0 = clock()
        after = cal.sample(CAL_SLICES)
        measured += wall + clock() - t0
        passes.append(Pass(wall, outcome,
                           calibrate.host_speed([before, after])))
        before = after
    return passes


def gates(workload, warm, passes) -> dict[str, bool]:
    """Per-pass invariants folded over all passes, the workload's own
    whole-run invariants, and determinism: the warm-up pass and the
    first timed pass ran the same inputs."""
    outcomes = [warm.outcome, *(p.outcome for p in passes)]
    result: dict[str, bool] = {}
    for outcome in outcomes:
        for name, ok in outcome.checks.items():
            result[name] = result.get(name, True) and bool(ok)
    result.update(workload.run_checks(outcomes))
    first = passes[0].outcome
    result["same_seed_same_sim_metrics"] = warm.outcome.sim == first.sim
    result["same_seed_same_output_digest"] = (warm.outcome.digest
                                              == first.digest)
    return result


def pooled(passes, key: str) -> list[float]:
    """Per-op host times of all passes at reference host speed (a slow
    host takes longer: time x speed)."""
    return [t * p.speed
            for p in passes for t in p.outcome.op_times.get(key, [])]


def fail_ratio(passes, gate_results: dict[str, bool]) -> float:
    if not all(gate_results.values()):
        return 1.0
    return (sum(p.outcome.failed for p in passes)
            / sum(p.outcome.ops for p in passes))


def measure_untraced(workload, ctx, cal, args, warm) -> dict:
    passes = run_passes(workload, ctx, cal, args.seed, args.seconds,
                        MIN_PASSES, vary=workload.seeded_passes)
    checks = gates(workload, warm, passes)
    raw_rates = [p.outcome.ops / p.wall for p in passes]
    rates = [raw / p.speed for raw, p in zip(raw_rates, passes)]
    per_op = pooled(passes, "op")
    per_pass_step_ms = [
        (median(p.outcome.op_times["op"]) if p.outcome.op_times
         else p.wall / p.outcome.ops) * p.speed * 1e3 for p in passes]
    first = passes[0].outcome
    return {
        "passes": len(passes),
        #: Per-pass values behind the medians; compare.py reads their
        #: spread to tell "unchanged" from "unresolved".
        "samples": {"ops_per_s": rates, "step_p50_ms": per_pass_step_ms,
                    "raw_ops_per_s": raw_rates,
                    "host_speed": [p.speed for p in passes]},
        "step_samples": len(per_op) or len(passes),
        "attempted": sum(p.outcome.ops for p in passes),
        "failed": sum(p.outcome.failed for p in passes),
        "gates": checks,
        "end_to_end": {
            "ops_per_s": median(rates),
            "step_p50_ms": (median(per_op) * 1e3 if per_op
                            else median(per_pass_step_ms)),
        },
        "host": {"raw_ops_per_s": median(raw_rates),
                 "speed": median(p.speed for p in passes)},
        "sim": {**first.sim, "fail_ratio": fail_ratio(passes, checks)},
        "digest": first.digest,
    }


def measure_traced(workload, ctx, cal, args, warm) -> dict:
    import layers
    import stats
    import tracing
    from repro import telemetry

    base = run_passes(workload, ctx, cal, args.seed,
                      args.seconds * TRACE_BASE_SHARE, TRACE_BASE_PASSES,
                      vary=False)
    # Walls are compared raw, within this run, by their fast quartile /
    # fastest sample: the ratios below are small differences, and host
    # noise only adds time.
    untraced_wall = stats.fast_wall([p.wall for p in base])
    capture_wall = float("inf")
    for _ in range(CAPTURE_PASSES):
        with telemetry.capture() as (_, registry):
            wall, _ = timed_pass(workload, ctx, args.seed, 0)
        capture_wall = min(capture_wall, wall)

    rec = tracing.Recorder()
    uninstall = layers.install(rec)
    tracing.activate(rec)
    try:
        traced = run_passes(
            workload, ctx, cal, args.seed, args.seconds * TRACE_SPAN_SHARE,
            1, vary=False,
            run=lambda ctx, inputs: rec.in_root("pass", workload.run, ctx,
                                                inputs, True))
    finally:
        tracing.activate(None)
        uninstall()

    checks = gates(workload, warm, base + traced)
    bd = layers.Breakdown(rec, workload.roots, len(traced))
    metrics = layers.layer_metrics(
        bd, n_spans=rec.n_spans, untraced_wall_s=untraced_wall,
        traced_wall_s=min(p.wall for p in traced),
        capture_wall_s=capture_wall,
        op_times={k: pooled(base, k) for k in base[0].outcome.op_times},
        outcome=traced[0].outcome, registry=registry,
        fail_ratio=fail_ratio(base + traced, checks),
        host_speed=median(p.speed for p in base),
        raw_ops_per_s=median(p.outcome.ops / p.wall for p in base))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(rec.chrome_trace())
    return {
        "passes": len(base) + len(traced),
        "traced_passes": len(traced),
        "step_samples": len(pooled(base, "op")),
        "attempted": sum(p.outcome.ops for p in base + traced),
        "failed": sum(p.outcome.failed for p in base + traced),
        "gates": checks,
        "per_layer": metrics,
        "trace_file": str(trace_file.relative_to(HERE)),
    }


def rss_mb() -> float:
    """Resident set now, MiB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, 0.1 if args.quick else 1.0)
    workload.prepare(ctx, pass_seed(args.seed, 0))
    raw_setup_s = time.perf_counter() - _T0

    import calibrate

    rss_before = rss_mb()
    cal = calibrate.Calibrator()
    # The kernel's operands stay resident to the end; they are not the
    # program's memory, so peak_rss_mb leaves them out.
    kernel_mb = rss_mb() - rss_before
    cal.sample(CAL_WARM_SLICES)
    setup_speed = calibrate.host_speed([cal.sample(CAL_SLICES)])
    setup = {"setup_s": raw_setup_s * setup_speed,
             "raw_setup_s": raw_setup_s, "setup_speed": setup_speed}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    warm = Pass(*timed_pass(workload, ctx, args.seed, 0), 1.0)
    measure = measure_traced if args.trace else measure_untraced
    result = measure(workload, ctx, cal, args, warm)
    result.update(setup)
    result.update({
        "workload": workload.name, "op": workload.op, "seed": args.seed,
        "quick": args.quick, "warmup_wall_s": warm.wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - kernel_mb,
        "correct": all(result["gates"].values()),
    })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
