"""Shared helpers for the per-experiment benchmark modules.

Every ``bench_*.py`` regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index) as a plain pytest module: it builds the
rows, echoes them through :func:`emit_table` (visible with ``-s``) and
asserts the paper's shape on them.  Everything is simulated-clock or
functional; wall-clock numbers come only from ``benchmarks/e2e``.

Workload knobs come from two environment variables, read inside test
bodies through :func:`bench_quick` / :func:`bench_seed`; both default to
the full-fidelity configuration.
"""

from __future__ import annotations

import os

QUICK_ENV = "REPRO_BENCH_QUICK"
SEED_ENV = "REPRO_BENCH_SEED"


def emit_table(title: str, header: list[str], rows: list[list]) -> str:
    """Format and print one experiment table."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
              for i, h in enumerate(header)]
    lines = [title, "-" * len(title)]
    lines.append("".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("".join(str(c).rjust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    return text


def bench_quick() -> bool:
    """True when ``REPRO_BENCH_QUICK=1`` asks for reduced workloads."""
    return os.environ.get(QUICK_ENV, "0") == "1"


def bench_seed(default: int = 0) -> int:
    """The workload seed from ``REPRO_BENCH_SEED``, or ``default``."""
    try:
        return int(os.environ.get(SEED_ENV, ""))
    except ValueError:
        return default
