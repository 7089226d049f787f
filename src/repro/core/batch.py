"""A Slurm-like batch front end for the MSA scheduler.

The health case studies stress that "job scripts ... needs to be all at
least partly abstracted away"; this module is the thing being abstracted: a
minimal ``#SBATCH``-style script format that compiles to the scheduler's
:class:`~repro.core.jobs.Job` model (``repro submit`` schedules it).

Script grammar (one phase per ``#PHASE`` block)::

    #!/bin/sh
    #SBATCH --job-name=train-resnet
    # arrival time, seconds
    #SBATCH --begin=120
    #PHASE name=preprocess workload=simulation-lowscale nodes=4 work=1e15 memory=64
    #PHASE name=train workload=ml-training nodes=16 work=2e18 gpu tensor-cores parallel=0.998

Unknown directives raise — silent typos in job scripts are how real
clusters eat allocations.
"""

from __future__ import annotations

import shlex
from typing import Any

from repro.core.jobs import GB, Job, JobPhase, WorkloadClass


class BatchScriptError(ValueError):
    """Malformed job script."""


_PHASE_KEYS = {
    "name", "workload", "nodes", "work", "memory", "io", "comm",
    "parallel", "efficiency", "gpu", "tensor-cores",
}


def _parse_phase(tokens: list[str], lineno: int) -> JobPhase:
    kwargs: dict[str, Any] = {}
    flags: set[str] = set()
    for token in tokens:
        if "=" in token:
            key, value = token.split("=", 1)
        else:
            key, value = token, None
        if key not in _PHASE_KEYS:
            raise BatchScriptError(
                f"line {lineno}: unknown phase option {key!r}")
        if value is None:
            flags.add(key)
        else:
            kwargs[key] = value
    try:
        workload = WorkloadClass(kwargs["workload"])
    except KeyError:
        raise BatchScriptError(f"line {lineno}: phase needs workload=")
    except ValueError:
        raise BatchScriptError(
            f"line {lineno}: unknown workload {kwargs['workload']!r} "
            f"(choose from {[w.value for w in WorkloadClass]})")
    if "work" not in kwargs:
        raise BatchScriptError(f"line {lineno}: phase needs work=<flops>")
    return JobPhase(
        name=kwargs.get("name", f"phase-{lineno}"),
        workload=workload,
        work_flops=float(kwargs["work"]),
        nodes=int(kwargs.get("nodes", 1)),
        parallel_fraction=float(kwargs.get("parallel", 0.95)),
        uses_gpu="gpu" in flags,
        uses_tensor_cores="tensor-cores" in flags,
        memory_GB_per_node=float(kwargs.get("memory", 16.0)),
        io_bytes=float(kwargs.get("io", 0.0)) * GB,
        comm_bytes_per_node=float(kwargs.get("comm", 0.0)) * GB,
        efficiency=float(kwargs.get("efficiency", 0.10)),
    )


def parse_job_script(script: str) -> Job:
    """Compile an ``#SBATCH``/``#PHASE`` script into a :class:`Job`."""
    name = "job"
    arrival = 0.0
    phases: list[JobPhase] = []
    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#!"):
            continue
        if line.startswith("#SBATCH"):
            directive = line[len("#SBATCH"):].strip()
            if not directive.startswith("--"):
                raise BatchScriptError(f"line {lineno}: malformed #SBATCH")
            key, _, value = directive[2:].partition("=")
            if key == "job-name":
                name = value or name
            elif key == "begin":
                arrival = float(value)
            else:
                raise BatchScriptError(
                    f"line {lineno}: unknown #SBATCH option --{key}")
        elif line.startswith("#PHASE"):
            tokens = shlex.split(line[len("#PHASE"):])
            phases.append(_parse_phase(tokens, lineno))
        elif line.startswith("#"):
            continue   # plain comment
        else:
            raise BatchScriptError(
                f"line {lineno}: only directives and comments are allowed "
                f"(got {line!r})")
    if not phases:
        raise BatchScriptError("script defines no #PHASE blocks")
    return Job(name=name, phases=phases, arrival_time=arrival)
