"""E10 — Sec. II-A NAM: shared datasets vs duplicate downloads.

The NAM 'enables ... sharing datasets over the network instead of duplicate
downloads of datasets by individual research group members'.  We regenerate
the sharing-vs-duplication table (time, external traffic, stored copies)
and the SSSM striping sweep that backs large staged datasets.
"""

import pytest

from repro.storage import DatasetSharingStudy, NetworkAttachedMemory, ParallelFileSystem

from conftest import emit_table

GiB = 1024 ** 3


def test_nam_sharing_vs_duplicates():
    def sweep():
        rows = []
        for members in (2, 5, 10, 20):
            study = DatasetSharingStudy(dataset_bytes=50 * GiB,
                                        n_members=members)
            base = study.baseline_duplicate_downloads()
            nam = study.nam_shared()
            rows.append([
                members,
                f"{base['wall_time_s'] / 60:.0f}",
                f"{nam['wall_time_s'] / 60:.0f}",
                f"{study.speedup():.1f}x",
                f"{study.traffic_reduction():.0f}x",
            ])
        return rows

    rows = sweep()
    emit_table(
        "E10 — 50 GiB dataset, N group members: duplicates vs NAM",
        ["members", "duplicates min", "NAM min", "speedup",
         "traffic reduction"], rows)

    speedups = [float(r[3][:-1]) for r in rows]
    assert all(s > 1.5 for s in speedups)
    assert speedups[-1] > speedups[0]           # grows with group size
    reductions = [float(r[4][:-1]) for r in rows]
    assert reductions == [2.0, 5.0, 10.0, 20.0]  # exactly N copies saved


def test_nam_capacity_discipline():
    """The NAM is a finite shared resource; eviction reclaims it."""
    def exercise():
        nam = NetworkAttachedMemory(capacity_GB=100.0)
        nam.stage("bigearthnet-a", 60 * GiB)
        try:
            nam.stage("bigearthnet-b", 60 * GiB)
            overflow_caught = False
        except MemoryError:
            overflow_caught = True
        nam.evict("bigearthnet-a")
        nam.stage("bigearthnet-b", 60 * GiB)
        return overflow_caught

    assert exercise()


def test_sssm_striping_sweep():
    """The SSSM side of staging: stripe width vs read time (Lustre-style)."""
    def sweep():
        pfs = ParallelFileSystem("JUST", n_targets=32, target_GBps=5.0)
        rows = []
        for stripes in (1, 4, 16, 32):
            handle = pfs.create(f"/covid-x-{stripes}", 120 * GiB,
                                stripe_count=stripes)
            rows.append([stripes, f"{pfs.read_time(handle):.1f}",
                         f"{pfs.aggregate_read_GBps(handle):.0f}"])
        return rows

    rows = sweep()
    emit_table("E10 — SSSM striping: 120 GiB staged dataset",
               ["stripe count", "read s", "layout GB/s"], rows)
    times = [float(r[1]) for r in rows]
    assert times == sorted(times, reverse=True)
    assert times[0] / times[-1] > 8
