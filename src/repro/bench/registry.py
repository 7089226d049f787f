"""Registry of benchmark cases, grouped by artifact area.

A :class:`BenchCase` bundles one measurable scenario: a builder that runs
the deterministic workload and reports metrics/digests.  Cases register
themselves with :func:`bench_case` at import time; the runner materializes
one ``BENCH_<area>.json`` per area from every case registered under it.
A case states what must hold of its own numbers with :func:`expect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional


@dataclass(frozen=True)
class Budget:
    """Regression budget for one deterministic metric.

    ``direction`` names the *good* direction — ``higher`` for rates,
    ``lower`` for costs; ``tolerance`` is the relative change in the bad
    direction that ``--compare`` tolerates before failing (e.g. 0.1 =
    a 10% regression budget).
    """

    direction: str
    tolerance: float = 0.10

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError("direction must be 'higher' or 'lower'")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


class ExpectationFailed(Exception):
    """A case's own numbers contradict what it states about them."""


def expect(condition: bool, message: str) -> None:
    """State an expectation of the running case; ``message`` says what
    should hold.  A false one fails the whole ``repro bench`` run (exit 1,
    naming the case, nothing written)."""
    if not condition:
        raise ExpectationFailed(message)


@dataclass
class CaseRun:
    """What one executed case hands the runner.

    ``metrics`` — deterministic numbers (simulated rates, counters);
    ``digests`` — hex strings pinning functional outputs bit-for-bit.
    """

    metrics: dict[str, float]
    digests: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchCase:
    name: str
    area: str
    run: Callable[[bool, int], CaseRun]   #: run(quick, seed)
    budgets: Mapping[str, Budget] = field(default_factory=dict)
    description: str = ""


_REGISTRY: dict[str, BenchCase] = {}


def bench_case(name: str, area: str,
               budgets: Optional[Mapping[str, Budget]] = None,
               description: str = ""):
    """Decorator registering ``fn(quick, seed) -> CaseRun`` as a case."""
    def deco(fn: Callable[[bool, int], CaseRun]) -> Callable:
        register(BenchCase(name=name, area=area, run=fn,
                           budgets=dict(budgets or {}),
                           description=description))
        return fn
    return deco


def register(case: BenchCase) -> None:
    if case.name in _REGISTRY:
        raise ValueError(f"duplicate bench case {case.name!r}")
    _REGISTRY[case.name] = case


def all_cases() -> list[BenchCase]:
    """Every registered case in registration (= definition) order."""
    return list(_REGISTRY.values())


def areas() -> list[str]:
    seen: dict[str, None] = {}
    for case in _REGISTRY.values():
        seen.setdefault(case.area)
    return list(seen)


def cases_for(selected: Optional[Iterable[str]] = None) -> list[BenchCase]:
    """Cases filtered to ``selected`` areas (all areas when None)."""
    if selected is None:
        return all_cases()
    wanted = set(selected)
    unknown = wanted - set(areas())
    if unknown:
        raise ValueError(f"unknown bench areas: {sorted(unknown)} "
                         f"(have {areas()})")
    return [c for c in _REGISTRY.values() if c.area in wanted]
