"""Self-check of the benchmark's own machinery (``run.py --selfcheck``).

Not collected by pytest on purpose: the benchmark directory stays out of
tier-1.  Checks the span arithmetic against a fake clock, the percentile
rule, the compare verdicts, that ``BENCHMARK.json`` and the code name
the same workloads and metrics, and that ``--quick`` runs the same code
at ~1/10 size within 30 s and is flagged not comparable.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import compare
import layers
import stats
from tracing import BENCH, Recorder, group_and_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def _rows(rec: Recorder) -> dict[str, list]:
    (thread,) = rec.threads
    return {name: row for (name, _), row in thread.agg.items()}


def check_nesting_and_siblings() -> None:
    clock = FakeClock()
    rec = Recorder(clock=clock)
    leaf = rec.wrap(lambda: clock.tick(2.0), "leaf", "simnet")

    def mid_body():
        clock.tick(1.0)
        leaf()
        leaf()                      # sibling: both count against mid
        clock.tick(0.5)

    mid = rec.wrap(mid_body, "mid", "serving")

    def root_body():
        clock.tick(0.25)
        mid()

    rec.in_root("pass", root_body)
    rows = _rows(rec)
    assert rows["leaf"] == [2, 4.0, 4.0], rows["leaf"]
    assert rows["mid"] == [1, 1.5, 5.5], rows["mid"]
    assert rows["pass"] == [1, 0.25, 5.75], rows["pass"]
    # Self times add up to the root's duration: nothing counted twice.
    assert sum(r[1] for r in rows.values()) == rows["pass"][2]
    bd = layers.Breakdown(rec, ("pass",), passes=1)
    assert bd.wall == 5.75 and bd.unattributed == 0.25
    assert bd.layer_self("simnet") == 4.0 and bd.layer_calls("simnet") == 2


def check_recursion_counts_outermost_once() -> None:
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def body(depth: int) -> None:
        clock.tick(1.0)
        if depth:
            call(depth - 1)

    call = rec.wrap(body, "module_call", "ml")
    rec.in_root("pass", call, 2)
    calls, self_s, incl_s = _rows(rec)["module_call"]
    assert (calls, self_s, incl_s) == (3, 3.0, 3.0), (calls, self_s, incl_s)


def check_exception_unwinds() -> None:
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def boom():
        clock.tick(1.0)
        raise KeyError("expected")

    wrapped = rec.wrap(boom, "boom", "core")

    def root_body():
        try:
            wrapped()
        except KeyError:
            clock.tick(0.5)

    rec.in_root("pass", root_body)
    rows = _rows(rec)
    assert rows["boom"] == [1, 1.0, 1.0]
    assert rows["pass"] == [1, 0.5, 1.5]
    assert rec.threads[0].stack == []


def check_two_threads_nest_independently() -> None:
    rec = Recorder()
    work = rec.wrap(lambda: time.sleep(0.01), "work", "mpi")
    barrier = threading.Barrier(2)

    def rank(r: int) -> None:
        def body():
            barrier.wait(timeout=10)
            work()
        rec.in_root(f"rank{r}", body)

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert sorted(st.root for st in rec.threads) == ["rank0", "rank1"]
    for st in rec.threads:
        assert st.agg[("work", "mpi")][0] == 1 and st.stack == []
    bd = layers.Breakdown(rec, ("rank0", "pass"), passes=1)
    assert bd.layer_calls("mpi") == 1        # rank 0's thread only
    parents = {(tid, sid): pid for tid, sid, pid, *_ in rec.raw}
    assert sorted(parents.values()) == [-1, -1, 0, 0]
    assert json.loads(rec.chrome_trace())["otherData"]["spans_total"] == 4


def check_callback_attribution() -> None:
    rec = Recorder(clock=FakeClock())
    assert group_and_layer("repro.serving.engine") == ("serving.engine",
                                                       "serving")
    assert group_and_layer("repro.ml.engine.cpu") == ("ml.engine.cpu",
                                                      "ml.engine")
    assert group_and_layer("repro.ml.tensor") == ("ml.tensor", "ml")
    assert group_and_layer("workloads")[1] == BENCH
    rec.in_root("pass", rec.wrap_callback(_registered_callback))
    assert ("selfcheck._registered_callback", BENCH) in rec.threads[0].agg


def _registered_callback() -> None:
    """Stands in for a function handed to ``Event.add_callback``."""


def check_percentile_rule() -> None:
    values = list(range(1, 201))               # n = 200
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190  # exactly ten beyond
    assert stats.percentile(values, 99) is None
    assert stats.percentile(values[:199], 95) is None
    assert stats.fast_wall([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 2.0
    assert abs(stats.spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
               - 5.5 / 14.5) < 1e-12


def check_host_speed_arithmetic() -> None:
    ref = calibrate.REFERENCE
    same = dict(ref)
    half = {name: 2.0 * took for name, took in ref.items()}
    assert calibrate.host_speed([same]) == 1.0
    assert abs(calibrate.host_speed([half]) - 0.5) < 1e-12
    # Two samples around a pass count by their mean time.
    assert abs(calibrate.host_speed([same, half]) - 1 / 1.5) < 1e-12
    # Components combine as a geometric mean: one of four at 1/16 speed.
    one_slow = dict(same, heap=16.0 * ref["heap"])
    assert abs(calibrate.host_speed([one_slow]) - 0.5) < 1e-12
    # The kernel runs, and every component is timed.
    took = calibrate.Calibrator().sample(1)
    assert set(took) == set(calibrate.COMPONENTS)
    assert all(t > 0 for t in took.values())


def check_compare_verdicts() -> None:
    v = compare.verdict
    assert v(100.0, 104.0, "lower", 0.10) == "same"
    assert v(100.0, 120.0, "lower", 0.10) == "worse"
    assert v(100.0, 80.0, "lower", 0.10) == "better"
    assert v(100.0, 80.0, "higher", 0.10) == "worse"
    assert v(100.0, 120.0, "higher", 0.10) == "better"
    noisy = [70.0, 90.0, 100.0, 110.0, 135.0]
    assert v(100.0, 120.0, "lower", 0.10, noisy, noisy) == "unresolved"
    # Noisy but every new sample beyond every base sample: resolved.
    assert v(100.0, 300.0, "lower", 0.10, noisy,
             [280.0, 300.0, 390.0, 400.0]) == "worse"
    assert v(0.0, 0.0, "lower", compare.EXACT) == "same"
    assert v(0.0, 0.01, "lower", compare.EXACT) == "worse"
    assert v(13.094283506674742, 13.094283506674742, "lower",
             compare.EXACT) == "same"
    assert v(0.79, 0.78, "higher", compare.EXACT) == "worse"


def check_spec_matches_code() -> None:
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "peak_rss_mb"]
    assert set(compare.host_metrics(spec)) == {
        "setup_s", "ops_per_s", "step_p50_ms", "peak_rss_mb"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert set(compare.OUTCOME) <= {m["name"] for m in spec["per_layer"]}


def _quick_suite(*flags: str) -> tuple[dict, float]:
    out = HERE / "out" / "selfcheck-quick.json"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *flags,
         "--out", str(out)], capture_output=True, text=True, timeout=180)
    took = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert doc["comparable"] is False
    assert list(doc["workloads"]) == list(__import__("run").WORKLOADS)
    for name, entry in doc["workloads"].items():
        assert all(entry["gates"].values()), (name, entry["gates"])
    assert compare.main([str(out), str(out)]) == 2     # refuses quick files
    return doc, took


def check_quick_run() -> None:
    _, took = _quick_suite()
    assert took <= 30.0, f"--quick took {took:.1f} s"
    print(f"    quick suite: {took:.1f} s")


def check_quick_traced_run() -> None:
    doc, _ = _quick_suite("--trace")
    for entry in doc["workloads"].values():
        assert set(entry["per_layer"]) == {n for n, _, _ in layers.PER_LAYER}


CHECKS = (
    check_nesting_and_siblings,
    check_recursion_counts_outermost_once,
    check_exception_unwinds,
    check_two_threads_nest_independently,
    check_callback_attribution,
    check_percentile_rule,
    check_host_speed_arithmetic,
    check_compare_verdicts,
    check_spec_matches_code,
    check_quick_run,
    check_quick_traced_run,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"ok   {check.__name__}")
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} self-checks passed")
    return 1 if failed else 0
