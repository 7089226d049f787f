"""Compare two result files written by ``run.py``.

    python benchmarks/e2e/compare.py out/base.json out/new.json

One row per (workload, metric): base, new, new/base, the bound and a
verdict.  Host-clock metrics take their bound from ``BENCHMARK.json``
(``step_p50_ms`` shares ``ops_per_s``'s); sim-clock metrics and
``fail_ratio`` must repeat exactly (relative 1e-12), because a
host-side change has no business moving them.

Verdicts:

* ``same`` — within the bound;
* ``better`` / ``worse`` — beyond the bound in that direction;
* ``unresolved`` — beyond the bound, but the per-pass samples of either
  side spread wider than the bound and the two sides' samples overlap,
  so one run each cannot tell a change from noise.  Run more.

Exits 1 if any row is ``worse``, 2 if a file is not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT = 1e-12

#: Outcome metrics compared exactly, with their direction.
OUTCOME = {name: better for name, _, better in PER_LAYER
           if name == "fail_ratio" or name.startswith("sim_")
           or name == "final_loss"}


def verdict(base: float, new: float, better: str, bound: float,
            base_samples=(), new_samples=()) -> str:
    """Classify ``new`` against ``base``; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = worse, as a share of the base.
    change = sign * (new - base) / abs(base) if base else sign * (new - base)
    if abs(change) <= bound:
        return "same"
    noisy = any(len(s) >= 3 and stats.spread(s) > bound
                for s in (base_samples, new_samples))
    if noisy:
        lo_b, hi_b = min(base_samples), max(base_samples)
        lo_n, hi_n = min(new_samples), max(new_samples)
        if not (lo_n > hi_b or hi_n < lo_b):
            return "unresolved"
    return "worse" if change > 0 else "better"


def host_metrics(spec: dict) -> dict[str, tuple[str, float]]:
    """``name -> (better, bound)`` of the host-clock metrics a run prints."""
    host = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    host["step_p50_ms"] = ("lower", host["ops_per_s"][1])
    return host


def rows(base: dict, new: dict, spec: dict) -> list[tuple]:
    out = []
    host = host_metrics(spec)
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for name, value in b["end_to_end"].items():
            better, bound = host[name]
            out.append((workload, name, value, n["end_to_end"][name], bound,
                        verdict(value, n["end_to_end"][name], better, bound,
                                b["samples"].get(name, ()),
                                n["samples"].get(name, ()))))
        for name, value in b["sim"].items():
            if name in n["sim"]:
                out.append((workload, name, value, n["sim"][name], "exact",
                            verdict(value, n["sim"][name], OUTCOME[name],
                                    EXACT)))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    for path, doc in zip(argv, (base, new)):
        if not doc.get("comparable", False):
            print(f"{path}: a --quick run, not comparable")
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(base, new, spec)
    print(f"{'workload':<14} {'metric':<16} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload, name, b, n, bound, v in table:
        ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
        print(f"{workload:<14} {name:<16} {b:>14.6g} {n:>14.6g} {ratio} "
              f"{bound!s:>6}  {v}")
    counts = {v: sum(1 for row in table if row[-1] == v)
              for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{k}: {v}" for k, v in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
