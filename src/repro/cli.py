"""Command-line front end: ``python -m repro.cli <command>``.

Commands mirror the operator tasks the examples walk through:

* ``systems`` — print the DEEP and JUWELS inventories (Table I / Sec. II-B),
* ``schedule`` — run a synthetic Fig. 2 workload mix through a system and
  print the schedule report,
* ``scaling`` — print the Fig. 3 distributed-training scaling series,
* ``submit`` — compile an ``#SBATCH``/``#PHASE`` job script and schedule it,
* ``serve`` — run an online-serving scenario (arrivals, SLO, autoscaling,
  optional fault plan) and print the serving report,
* ``trace`` — run a canonical traced scenario under the unified telemetry
  layer and write Chrome-trace / Prometheus / summary artifacts,
* ``drill`` — run a resilience drill; ``drill sdc`` injects silent data
  corruption end-to-end and exits non-zero on any undetected corruption,
  ``drill chaos`` throws partitions, gray failures and a crash at the
  serving plane and exits non-zero if any admitted request is lost,
* ``bench`` — run the perf-regression harness: deterministic
  ``BENCH_<area>.json`` artifacts, with ``--compare`` failing on
  budgeted-metric regressions vs the committed baseline,
* ``experiments`` — list every experiment and what regenerates it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional, Sequence

#: Experiments beyond the paper's own figures: (id, title, where it lives).
#: E1–E14 and ABL are the ``paper`` bench cases (see :func:`experiments`).
EXPERIMENTS = [
    ("E15", "unified telemetry traces (chrome://tracing / Perfetto)",
     "repro trace train|serve"),
    ("E16", "SDC drill (silent-corruption detection, rollback, overhead)",
     "repro drill sdc"),
    ("E17", "perf-regression harness (repro bench -> BENCH_*.json)",
     "src/repro/bench/"),
    ("E18", "lazy tensor engine (fused op graphs, cpu/sim-gpu backends)",
     "src/repro/ml/engine/"),
    ("E19", "chaos drill (partitions, gray failures, hedging, brownout)",
     "repro drill chaos"),
    ("E20", "scheduler matchmaking cost (placement tables, scored once)",
     "src/repro/core/scheduler.py"),
    ("E21", "lazy-engine plan capture (schedule once, replay; no recompute)",
     "src/repro/ml/engine/cpu.py"),
    ("E22", "zero-copy backward (gradient ownership, in-place slice scatter)",
     "src/repro/ml/tensor.py"),
    ("E23", "event kernel: only live events in the heap (timeout series)",
     "src/repro/simnet/events.py"),
    ("E24", "message path: one reader per inbox (single-consumer transport)",
     "src/repro/mpi/transport.py"),
]


def experiments() -> list[tuple[str, str, str]]:
    """Every experiment as (id, title, what regenerates it).

    The paper's rows come from the ``paper`` bench area — id from the case
    name, title from its description — so the listing cannot drift from
    the registry; the ablations case closes the list.
    """
    from repro.bench import cases_for, paper  # noqa: F401 — registers the area

    *figures, ablations = [
        (case.name.partition("_")[0], case.description,
         f"repro bench --areas paper ({case.name})")
        for case in cases_for(["paper"])]
    return [*figures, *EXPERIMENTS, ablations]


def _bounded(kind: type, low: float, strict: bool) -> Callable[[str], float]:
    """An argparse ``type=``: a finite ``kind`` above ``low`` (or at it,
    unless ``strict``), so bad input is a usage error, not a traceback."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value)
                and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__       # argparse's "invalid int value"
    return parse


_POSITIVE_INT = _bounded(int, 0, strict=True)
_POSITIVE_FLOAT = _bounded(float, 0, strict=True)
_COUNT = _bounded(int, 0, strict=False)
_NON_NEGATIVE_FLOAT = _bounded(float, 0, strict=False)


def _build_system(name: str):
    from repro.core import deep_system, juwels_system

    if name == "deep":
        return deep_system()
    if name == "juwels":
        return juwels_system()
    raise SystemExit(f"unknown system {name!r} (choose deep or juwels)")


def cmd_systems(args: argparse.Namespace) -> int:
    for name in ("deep", "juwels"):
        system = _build_system(name)
        print(system.describe())
        print(f"  totals: {system.total_nodes} nodes, "
              f"{system.total_cpu_cores:,} CPU cores, "
              f"{system.total_gpus:,} GPUs, "
              f"{system.peak_flops / 1e15:.1f} PFLOP/s peak")
        print()
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core import schedule_workload, synthetic_workload_mix

    system = _build_system(args.system)
    jobs = synthetic_workload_mix(n_jobs=args.jobs, seed=args.seed,
                                  mean_interarrival_s=args.interarrival)
    report = schedule_workload(system, jobs)
    print(report.summary())
    if args.placements:
        print("\nplacements:")
        for alloc in report.allocations:
            print(f"  {alloc.job_name:>20}/{alloc.phase_name:<22} -> "
                  f"{alloc.module_key:<12} x{len(alloc.nodes):<4} "
                  f"{alloc.duration:>12,.0f} s")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.distributed import DistributedTrainingPerfModel

    model = DistributedTrainingPerfModel()
    if args.tuned:
        model = replace(model, recipe=model.recipe.tuned())
    print(f"{'GPUs':>6} {'epoch s':>9} {'speedup':>9} {'efficiency':>11}")
    for pt in model.scaling_curve(args.gpus):
        print(f"{pt.n_gpus:>6} {pt.epoch_time_s:>9.1f} {pt.speedup:>9.1f} "
              f"{pt.efficiency:>11.2f}")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.core import schedule_workload
    from repro.core.batch import parse_job_script

    try:
        with open(args.script) as fh:
            job = parse_job_script(fh.read())
    except (ValueError, OSError) as exc:    # a BatchScriptError, a bad number
        print(f"error: {args.script}: {exc}", file=sys.stderr)
        return 2
    system = _build_system(args.system)
    report = schedule_workload(system, [job])
    print(f"job {job.name!r}: completed at "
          f"{report.completion_times[job.name]:,.0f} s")
    for alloc in report.allocations:
        print(f"  {alloc.phase_name:<22} -> {alloc.module_key:<12} "
              f"x{len(alloc.nodes)} [{alloc.start:,.0f} … {alloc.end:,.0f}] s")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience.faults import (
        FaultInjector,
        FaultPlan,
        FaultPlanError,
    )
    from repro.serving import (
        AdmissionPolicy,
        ArrivalPattern,
        AutoscalerConfig,
        DefenseConfig,
        ServingConfig,
        TraceConfig,
        simulate_serving,
    )

    system = _build_system(args.system)
    try:
        config = ServingConfig(
            trace=TraceConfig(
                pattern=ArrivalPattern(args.scenario),
                rate_per_s=args.rate,
                duration_s=args.duration,
                slo_deadline_s=args.slo,
                samples_per_request=args.samples,
                seed=args.seed,
            ),
            admission=AdmissionPolicy(rate_limit_per_s=args.rate_limit,
                                      max_queue_depth=args.max_queue),
            autoscaler=AutoscalerConfig(enabled=not args.no_autoscale,
                                        min_replicas=args.replicas,
                                        max_replicas=args.max_replicas),
            initial_replicas=args.replicas,
            cache_capacity=args.cache,
            defense=DefenseConfig(enabled=args.defend),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    injector = None
    try:
        if args.faults:
            targets = {key: module.n_nodes
                       for key, module in system.compute_modules().items()}
            plan = FaultPlan.parse(args.faults, targets=targets,
                                   horizon_s=args.duration)
            injector = FaultInjector(plan)
        report = simulate_serving(config, system=system,
                                  fault_injector=injector)
    except FaultPlanError as exc:
        print(f"error: --faults: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    return 0 if report.meets_slo() else 1


def cmd_scenario(args: argparse.Namespace) -> int:
    """``repro trace <scenario>`` and ``repro drill <kind>``: one runner."""
    import os

    from repro.scenarios import ScenarioUsageError, run_scenario

    name = args.kind if args.command == "drill" else args.scenario
    arm = {flag: False for flag in ("verify", "defend")
           if getattr(args, f"no_{flag}", False)}
    try:
        run = run_scenario(name, seed=args.seed, quick=args.quick, **arm)
    except ScenarioUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join(
        f"{args.command}s", f"{name}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    for filename, body in run.files.items():
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
    # A drill prints its report, a trace its summary (followed, as it always
    # was, by one more blank line).
    print(run.files.get("report.txt") or run.files["summary.txt"] + "\n")
    print(f"artifacts written to {out_dir}/ ({', '.join(run.files)})")
    if not run.ok:
        print(f"FAILED CHECKS: {', '.join(run.failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.registry import ExpectationFailed
    from repro.bench.runner import (
        DEFAULT_BASELINE_DIR,
        compare_docs,
        load_artifact_dir,
        run_bench,
        write_artifacts,
    )
    from repro.bench.schema import BenchSchemaError

    areas = args.areas.split(",") if args.areas else None
    try:
        artifacts = run_bench(areas=areas, quick=args.quick, seed=args.seed)
    except ExpectationFailed as exc:
        print(f"bench expectation failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BenchSchemaError) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or "bench"
    written = write_artifacts(artifacts, out_dir)
    for path in written:
        print(f"wrote {path}")
    # Quick and full are different workloads, each with its own baseline.
    committed = (DEFAULT_BASELINE_DIR if args.quick
                 else DEFAULT_BASELINE_DIR / "full")
    if args.update_baseline:
        for path in write_artifacts(artifacts, committed):
            print(f"updated baseline {path}")
    if args.compare is not None:
        baseline_dir = args.compare or str(committed)
        try:
            baseline = load_artifact_dir(baseline_dir)
        except BenchSchemaError as exc:
            print(f"bench error: {exc}", file=sys.stderr)
            return 2
        report = compare_docs(artifacts, baseline)
        print(f"\ncompare vs {baseline_dir}:")
        print(report.to_text())
        if not report.ok:
            return 1
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    rows = experiments()
    width = max(len(title) for _, title, _ in rows)
    for exp_id, title, bench in rows:
        print(f"{exp_id:<5} {title:<{width}}  {bench}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MSA reproduction command-line front end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="print DEEP and JUWELS inventories"
                   ).set_defaults(fn=cmd_systems)

    p = sub.add_parser("schedule", help="run a synthetic workload mix")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.add_argument("--jobs", type=_POSITIVE_INT, default=10)
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--interarrival", type=_NON_NEGATIVE_FLOAT, default=300.0)
    p.add_argument("--placements", action="store_true")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("scaling", help="print the Fig. 3 scaling series")
    p.add_argument("--gpus", type=_POSITIVE_INT, nargs="+",
                   default=[1, 2, 4, 8, 16, 32, 64, 96, 128])
    p.add_argument("--tuned", action="store_true",
                   help="use the [20]-style tuned recipe")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("submit", help="schedule an #SBATCH/#PHASE script")
    p.add_argument("script")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("serve", help="run an online-serving scenario")
    p.add_argument("--system", default="deep", choices=("deep", "juwels"))
    p.add_argument("--scenario", default="poisson",
                   choices=("poisson", "diurnal", "bursty"))
    p.add_argument("--rate", type=_POSITIVE_FLOAT, default=100.0,
                   help="mean arrival rate (req/s)")
    p.add_argument("--duration", type=_POSITIVE_FLOAT, default=60.0,
                   help="trace length (simulated s)")
    p.add_argument("--slo", type=_POSITIVE_FLOAT, default=0.5,
                   help="per-request deadline (s); exit status reports p99")
    p.add_argument("--samples", type=_POSITIVE_INT, default=8,
                   help="samples (patches) per request")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--replicas", type=_POSITIVE_INT, default=1,
                   help="initial (and minimum) replica count")
    p.add_argument("--max-replicas", type=_POSITIVE_INT, default=8)
    p.add_argument("--no-autoscale", action="store_true",
                   help="pin the pool at --replicas")
    p.add_argument("--rate-limit", type=_NON_NEGATIVE_FLOAT, default=0.0,
                   help="admission token-bucket rate (0 = off)")
    p.add_argument("--max-queue", type=_COUNT, default=0,
                   help="shed arrivals beyond this queue depth (0 = off)")
    p.add_argument("--cache", type=_COUNT, default=0,
                   help="result-cache capacity in entries (0 = off)")
    p.add_argument("--defend", action="store_true",
                   help="arm the partition/gray-failure defenses (phi "
                        "detector, circuit breakers, hedging, brownout)")
    p.add_argument("--faults", default="",
                   help="fault plan, e.g. seed=7,crash=esb:2,repair=10 or "
                        "seed=7,chaos=partition:1,gray:2,repair=5")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("trace", help="run a traced scenario, export artifacts")
    p.add_argument("scenario", choices=("train", "serve"),
                   help="train: faulted scheduler + elastic training; "
                        "serve: online serving with a crash + autoscaling")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--quick", action="store_true",
                   help="smaller workload (CI smoke)")
    p.add_argument("--out", default="",
                   help="output directory (default traces/<scenario>-seed<N>)")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("drill", help="run a resilience drill")
    p.add_argument("kind", choices=("sdc", "chaos"),
                   help="sdc: end-to-end silent-data-corruption drill; "
                        "chaos: partitions + gray failures against the "
                        "serving plane (exits non-zero on any lost request)")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--quick", action="store_true",
                   help="smaller run (CI smoke)")
    p.add_argument("--no-verify", action="store_true",
                   help="sdc: disable detection to demonstrate the injector "
                        "(report shows the corrupted outcome)")
    p.add_argument("--no-defend", action="store_true",
                   help="chaos: disable the defense layer — zero loss must "
                        "still hold (it is structural, not a defense)")
    p.add_argument("--out", default="",
                   help="output directory (default drills/<kind>-seed<N>)")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("bench", help="run the perf-regression harness")
    p.add_argument("--quick", action="store_true",
                   help="small workloads (CI smoke)")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--areas", default="",
                   help="comma-separated areas (default: all registered)")
    p.add_argument("--out", default="",
                   help="output directory (default bench/)")
    p.add_argument("--compare", nargs="?", const="", default=None,
                   metavar="BASELINE_DIR",
                   help="diff against a baseline directory (default "
                        "benchmarks/baselines, or its full/ without "
                        "--quick) and exit non-zero on any budgeted-metric "
                        "regression")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite this mode's committed baseline with this "
                        "run's deterministic artifacts")
    p.set_defaults(fn=cmd_bench)

    sub.add_parser("experiments", help="list experiments and benches"
                   ).set_defaults(fn=cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`) — exit quietly.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
