"""Perf-regression harness: ``repro bench`` → deterministic ``BENCH_*.json``.

The quantitative backbone for every speed claim the repo makes (ROADMAP
item 4).  See :mod:`repro.bench.schema` for the artifact contract and
:mod:`repro.bench.cases` for what is measured.  Everything here runs on
the simulated clock; wall-clock numbers come only from
``benchmarks/e2e/run.py``.
"""

from repro.bench.registry import (
    BenchCase,
    Budget,
    CaseRun,
    ExpectationFailed,
    all_cases,
    areas,
    bench_case,
    cases_for,
    expect,
)
from repro.bench.schema import (
    SCHEMA_ID,
    BenchSchemaError,
    dumps_canonical,
    env_fingerprint,
    loads_validated,
    validate_artifact,
)

__all__ = [
    "BenchCase",
    "Budget",
    "CaseRun",
    "ExpectationFailed",
    "all_cases",
    "areas",
    "bench_case",
    "cases_for",
    "expect",
    "SCHEMA_ID",
    "BenchSchemaError",
    "dumps_canonical",
    "env_fingerprint",
    "loads_validated",
    "validate_artifact",
]
