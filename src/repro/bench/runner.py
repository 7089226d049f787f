"""Execute the bench registry and emit / compare ``BENCH_*.json``.

The runner is the machinery behind ``repro bench``:

* run every registered case (optionally filtered by area) at a given
  (quick, seed) point,
* fold case results into one deterministic artifact per area,
* write them to an output directory, canonically serialized so same-seed
  runs are byte-identical,
* stop at the first case whose :func:`~repro.bench.registry.expect` does
  not hold, naming the case,
* ``--compare``: load a committed baseline directory and fail on any
  budgeted metric regressing beyond its tolerance.

Exit-code contract (used by CI): 0 = ok, 1 = regression, budget
violation or failed expectation, 2 = schema/usage error.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

# Importing the case modules is what registers their cases.
from repro.bench import cases as _cases, paper as _paper  # noqa: F401
from repro.bench.registry import ExpectationFailed, cases_for
from repro.bench.schema import (
    SCHEMA_ID,
    BenchSchemaError,
    dumps_canonical,
    env_fingerprint,
    loads_validated,
    validate_artifact,
)

#: The committed baseline directory (repo-root relative fallback to cwd).
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BASELINE_DIR = _REPO_ROOT / "benchmarks" / "baselines"


def run_bench(
    areas: Optional[Iterable[str]] = None,
    quick: bool = True,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, dict]:
    """Run the registry; returns ``BENCH_<area>.json`` bodies keyed by area."""
    selected = cases_for(list(areas) if areas is not None else None)
    env = env_fingerprint()
    mode = "quick" if quick else "full"
    by_area: dict[str, dict] = {}
    for case in selected:
        if progress is not None:
            progress(f"[{case.area}] {case.name} ...")
        try:
            run = case.run(quick, seed)
        except ExpectationFailed as exc:
            raise ExpectationFailed(
                f"{case.area}/{case.name}: expected {exc}") from None
        doc = by_area.setdefault(case.area, {
            "schema": SCHEMA_ID, "area": case.area, "mode": mode,
            "seed": seed, "env": env, "cases": {}})
        doc["cases"][case.name] = {
            "description": case.description,
            "metrics": dict(run.metrics),
            "digests": dict(run.digests),
            "budgets": {m: {"direction": b.direction,
                            "tolerance": b.tolerance}
                        for m, b in case.budgets.items()},
        }
    for doc in by_area.values():
        validate_artifact(doc)
    return by_area


def write_artifacts(artifacts: Mapping[str, dict],
                    out_dir: str | pathlib.Path) -> list[pathlib.Path]:
    """Write one ``BENCH_<area>.json`` per area; returns the paths written."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for area in sorted(artifacts):
        path = out / f"BENCH_{area}.json"
        path.write_text(dumps_canonical(artifacts[area]))
        written.append(path)
    return written


def load_artifact_dir(path: str | pathlib.Path) -> dict[str, dict]:
    """Load every ``BENCH_*.json`` under ``path``, validated."""
    root = pathlib.Path(path)
    if not root.is_dir():
        raise BenchSchemaError(f"baseline directory {root} does not exist")
    docs: dict[str, dict] = {}
    for file in sorted(root.glob("BENCH_*.json")):
        doc = loads_validated(file.read_text())
        docs[doc["area"]] = doc
    if not docs:
        raise BenchSchemaError(f"no BENCH_*.json artifacts under {root}")
    return docs


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    area: str
    case: str
    metric: str
    baseline: float
    current: float
    direction: str
    tolerance: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        change = self.rel_change
        if self.direction == "higher":      # higher is better
            return change < -self.tolerance
        return change > self.tolerance      # lower is better

    @property
    def improved(self) -> bool:
        change = self.rel_change
        if self.direction == "higher":
            return change > self.tolerance
        return change < -self.tolerance

    def describe(self) -> str:
        arrow = {"higher": "↑ better", "lower": "↓ better"}[self.direction]
        return (f"{self.area}/{self.case}/{self.metric}: "
                f"{self.baseline:g} -> {self.current:g} "
                f"({self.rel_change:+.1%}, {arrow}, "
                f"budget ±{self.tolerance:.0%})")


@dataclass
class CompareReport:
    regressions: list[Delta] = field(default_factory=list)
    improvements: list[Delta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_text(self) -> str:
        lines = []
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines += [f"  {d.describe()}" for d in self.regressions]
        if self.improvements:
            lines.append(f"improvements ({len(self.improvements)}):")
            lines += [f"  {d.describe()}" for d in self.improvements]
        if self.notes:
            lines.append("notes:")
            lines += [f"  {n}" for n in self.notes]
        if not lines:
            lines.append("no budgeted metric moved beyond tolerance")
        return "\n".join(lines)


def compare_docs(current: Mapping[str, dict],
                 baseline: Mapping[str, dict]) -> CompareReport:
    """Diff current deterministic artifacts against a baseline set.

    Budgets attached to the *current* artifact govern (the code under
    test owns its budgets); metrics present on one side only and digest
    drift are reported as notes, never as failures — digests pin
    bit-exactness across same-code runs, not across code changes.
    """
    report = CompareReport()
    for area in sorted(baseline):
        if area not in current:
            report.regressions.append(Delta(
                area=area, case="-", metric="artifact-present",
                baseline=1.0, current=0.0, direction="higher",
                tolerance=0.0))
            continue
        base_cases = baseline[area]["cases"]
        cur_cases = current[area]["cases"]
        if (baseline[area].get("mode") != current[area].get("mode")
                or baseline[area].get("seed") != current[area].get("seed")):
            report.notes.append(
                f"{area}: comparing across mode/seed "
                f"({baseline[area].get('mode')}/{baseline[area].get('seed')}"
                f" vs {current[area].get('mode')}/"
                f"{current[area].get('seed')}) — deltas may be workload-"
                "size effects")
        for cname in sorted(base_cases):
            if cname not in cur_cases:
                report.notes.append(f"{area}/{cname}: case removed")
                continue
            base = base_cases[cname]
            cur = cur_cases[cname]
            budgets = cur.get("budgets") or base.get("budgets") or {}
            for metric, budget in sorted(budgets.items()):
                if metric not in base["metrics"]:
                    report.notes.append(
                        f"{area}/{cname}/{metric}: new budgeted metric "
                        "(no baseline)")
                    continue
                if metric not in cur["metrics"]:
                    report.notes.append(
                        f"{area}/{cname}/{metric}: metric dropped")
                    continue
                delta = Delta(
                    area=area, case=cname, metric=metric,
                    baseline=float(base["metrics"][metric]),
                    current=float(cur["metrics"][metric]),
                    direction=budget["direction"],
                    tolerance=float(budget["tolerance"]))
                if delta.regressed:
                    report.regressions.append(delta)
                elif delta.improved:
                    report.improvements.append(delta)
            for dname, dval in sorted((cur.get("digests") or {}).items()):
                if (base.get("digests", {}).get(dname) not in (None, dval)):
                    report.notes.append(
                        f"{area}/{cname}/digest:{dname}: functional output "
                        "changed vs baseline (expected only when the code "
                        "change intends it)")
    return report
