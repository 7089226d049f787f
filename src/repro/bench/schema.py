"""The ``BENCH_<area>.json`` artifact schema and its validator.

``BENCH_<area>.json`` is the **deterministic** perf artifact that is
committed per PR and byte-compared across runs.  Everything in it is a
pure function of (code, seed, quick flag, environment): simulated-time
rates and percentiles, operation counters the optimizations move
(checksums per message, buffer allocations per step, events processed),
and digests pinning the functional outputs bit-for-bit.  Wall-clock
numbers are banned here by construction — nothing under ``src/`` reads
the host clock; they live in the ``benchmarks/e2e`` ledger.

The validator is hand-rolled (no jsonschema dependency) and is the same
code path for artifacts we emit and artifacts we load for ``--compare``,
so a drifted baseline fails loudly instead of comparing garbage.
"""

from __future__ import annotations

import json
import platform
from typing import Any, Mapping

import numpy as np

SCHEMA_ID = "repro-bench/1"


class BenchSchemaError(ValueError):
    """An artifact (emitted or loaded) violates the bench schema."""


def env_fingerprint() -> dict[str, str]:
    """The environment stamp embedded in every deterministic artifact.

    Only machine-stable facts: two same-seed runs on one machine must
    produce byte-identical artifacts, so nothing time- or pid-derived
    belongs here.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BenchSchemaError(msg)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_artifact(doc: Mapping[str, Any]) -> None:
    """Validate one deterministic ``BENCH_<area>.json`` document."""
    _require(isinstance(doc, Mapping), "artifact must be a JSON object")
    _require(doc.get("schema") == SCHEMA_ID,
             f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    _require(isinstance(doc.get("area"), str) and doc["area"],
             "area must be a non-empty string")
    _require(doc.get("mode") in ("quick", "full"),
             "mode must be 'quick' or 'full'")
    _require(isinstance(doc.get("seed"), int) and not isinstance(
        doc.get("seed"), bool), "seed must be an integer")
    env = doc.get("env")
    _require(isinstance(env, Mapping), "env fingerprint missing")
    for key in ("python", "numpy", "system", "machine"):
        _require(isinstance(env.get(key), str),
                 f"env.{key} must be a string")
    cases = doc.get("cases")
    _require(isinstance(cases, Mapping) and cases,
             "cases must be a non-empty object")
    for name, case in cases.items():
        _require(isinstance(case, Mapping), f"case {name!r} must be object")
        metrics = case.get("metrics")
        _require(isinstance(metrics, Mapping) and metrics,
                 f"case {name!r} needs a non-empty metrics object")
        for mname, value in metrics.items():
            _require(_is_number(value),
                     f"metric {name}.{mname} must be a number, "
                     f"got {type(value).__name__}")
        digests = case.get("digests", {})
        _require(isinstance(digests, Mapping),
                 f"case {name!r} digests must be an object")
        for dname, value in digests.items():
            _require(isinstance(value, str),
                     f"digest {name}.{dname} must be a string")
        budgets = case.get("budgets", {})
        _require(isinstance(budgets, Mapping),
                 f"case {name!r} budgets must be an object")
        for mname, budget in budgets.items():
            _require(isinstance(budget, Mapping),
                     f"budget {name}.{mname} must be an object")
            _require(budget.get("direction") in ("higher", "lower"),
                     f"budget {name}.{mname}.direction must be "
                     "'higher' or 'lower'")
            _require(_is_number(budget.get("tolerance"))
                     and 0 <= budget["tolerance"],
                     f"budget {name}.{mname}.tolerance must be >= 0")
            _require(mname in metrics,
                     f"budget {name}.{mname} has no matching metric")


def dumps_canonical(doc: Mapping[str, Any]) -> str:
    """Byte-deterministic serialization: sorted keys, fixed separators,
    trailing newline.  ``json.dumps`` renders identical floats identically
    (shortest-repr), so determinism reduces to value determinism."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_validated(text: str) -> dict[str, Any]:
    """Parse and validate an artifact; raises :class:`BenchSchemaError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"artifact is not valid JSON: {exc}") from exc
    validate_artifact(doc)
    return doc
