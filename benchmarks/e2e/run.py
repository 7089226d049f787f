"""End-to-end wall-clock benchmark over seven named workloads.

    python benchmarks/e2e/run.py                          # all workloads
    python benchmarks/e2e/run.py --trace                  # + per-layer run
    python benchmarks/e2e/run.py --workload serve_chaos --seed 3 \\
        --seconds 8 --trace 0                             # one measurement
    python benchmarks/e2e/run.py --selfcheck
    python benchmarks/e2e/run.py --quick                  # ~1/10 sizes

Every measurement runs in a child interpreter of its own (``child.py``),
one at a time, with BLAS/OpenMP pinned to one thread.  With
``--workload`` the last line of standard output is the one-object JSON
result the acceptance driver reads; without it the runner measures every
workload, prints every metric by name with its unit, and writes the
numbers to ``out/`` for ``compare.py``.

Two clocks: *host* metrics say how long the simulator and ML stack took
(noisy, bounded, reported at reference host speed — ``calibrate.py``);
*sim* metrics say what the modelled machine would take (deterministic
per seed, must repeat exactly).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("serve_steady", "serve_chaos", "sched_backlog", "train_eager",
             "train_lazy", "train_dp2", "mpi_coll")

#: Extra setup-only children per untraced measurement; with the measuring
#: child that gives five ``setup_s`` samples, and the median is reported.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"})
    # The engine mode is the workload's business (train_eager/train_lazy).
    env.pop("ENGINE", None)
    env.pop("REPRO_ENGINE", None)
    return env


def prime() -> None:
    """One throw-away import so the first ``setup_s`` sample does not pay
    for a cold file cache; also the check that there is a program here."""
    done = subprocess.run(
        [sys.executable, "-c", "import numpy, repro"], env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("benchmark: cannot import repro from "
                         f"{ROOT / 'src'} — nothing to measure")


def child(args: list[str]) -> dict:
    """Run ``child.py``; its last stdout line is the JSON result."""
    done = subprocess.run(
        [sys.executable, str(CHILD), *args], env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark child failed ({done.returncode}): "
                         f"{' '.join(args)}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """One workload, one mode; returns the child's result with
    ``setup_s`` replaced by the median over all setup samples."""
    base = ["--workload", workload, "--seed", str(seed)]
    if quick:
        base.append("--quick")
    probes = []
    if not trace and not quick:
        probes = [child([*base, "--setup-only"]) for _ in range(SETUP_PROBES)]
    result = child([*base, "--seconds", str(seconds),
                    "--trace", str(int(trace))])
    probes.append(result)
    result["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    if not trace:
        result["samples"].update(
            {key: [p[key] for p in probes]
             for key in ("setup_s", "raw_setup_s", "setup_speed")})
        result["end_to_end"].update(setup_s=result["setup_s"],
                                    peak_rss_mb=result["peak_rss_mb"])
        result["host"]["raw_setup_s"] = statistics.median(
            p["raw_setup_s"] for p in probes)
    return result


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": sha.stdout.strip() if sha.returncode == 0
            else "unknown"}


def units(*sections: str) -> dict[str, str]:
    doc = spec()
    return {m["name"]: m["unit"] for s in sections for m in doc[s]}


def print_metrics(title: str, values: dict[str, float],
                  unit_of: dict[str, str], skip_zero: bool = False) -> None:
    print(f"  {title}")
    for name, value in values.items():
        if skip_zero and not value:
            continue
        print(f"    {name:<36} {value:>16.6g} {unit_of.get(name, '')}")


def report(result: dict) -> None:
    """Every metric of one measurement by name, with its unit."""
    mode = "traced" if "per_layer" in result else "untraced"
    flags = " QUICK (not comparable)" if result["quick"] else ""
    print(f"{result['workload']} seed {result['seed']} [{mode}]{flags}: "
          f"{result['passes']} passes, op = {result['op']}, "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"correct = {result['correct']}")
    failed = [g for g, ok in result["gates"].items() if not ok]
    if failed:
        print(f"  FAILED GATES: {', '.join(failed)}")
    unit_of = units("end_to_end", "per_layer")
    if mode == "untraced":
        print_metrics(f"end to end (host clock at reference host speed; "
                      f"per-op n = {result['step_samples']})",
                      result["end_to_end"], unit_of)
        print_metrics("as measured on this host (speed 1 = reference box)",
                      result["host"],
                      {"raw_ops_per_s": "1/s", "speed": "ratio",
                       "raw_setup_s": "s"})
        print_metrics("outcome (sim clock, exact per seed)", result["sim"],
                      unit_of)
    else:
        print_metrics(f"per layer (zero rows omitted; per-op n = "
                      f"{result['step_samples']}; spans in "
                      f"{result['trace_file']})",
                      result["per_layer"], unit_of, skip_zero=True)


def contract_line(result: dict) -> str:
    """The driver's result object for one measurement."""
    section = "per_layer" if "per_layer" in result else "end_to_end"
    unit_of = units(section)
    values = result[section]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in unit_of.items()},
    })


def run_suite(args) -> int:
    """Every workload, untraced (and traced with ``--trace``)."""
    results: dict[str, dict] = {}
    ok = True
    for name in WORKLOADS:
        entry = results[name] = {}
        modes = (False, True) if args.trace else (False,)
        for trace in modes:
            result = measure(name, args.seed, args.seconds, trace, args.quick)
            report(result)
            ok = ok and result["correct"]
            if trace:
                entry["per_layer"] = result["per_layer"]
            else:
                entry.update(end_to_end=result["end_to_end"],
                             host=result["host"],
                             samples=result["samples"],
                             sim=result["sim"], digest=result["digest"],
                             passes=result["passes"],
                             step_samples=result["step_samples"],
                             gates=result["gates"])
    same = results["train_lazy"]["digest"] == results["train_eager"]["digest"]
    print(f"train_lazy loss trajectory equals train_eager's bit for bit: "
          f"{same}")
    if not same:
        results["train_lazy"]["sim"]["fail_ratio"] = 1.0
    ok = ok and same
    out = Path(args.out) if args.out else OUT / (
        f"results-seed{args.seed}{'-quick' if args.quick else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "env": fingerprint(), "seed": args.seed, "seconds": args.seconds,
        "comparable": not args.quick, "workloads": results}, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="same code at ~1/10 sizes; not comparable")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="suite result file "
                                      "(default: out/results-seed<N>.json)")
    args = parser.parse_args(argv)

    if args.selfcheck:
        import selfcheck
        return selfcheck.main()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec()["run_seconds"])
    prime()
    if args.workload is None:
        return run_suite(args)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    report(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
