"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 perfbench/selftest.py        (or: python3 perfbench/run.py --selftest)

Exits non-zero on the first failed check. Needs neither the program
nor a server.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
from stats import (  # noqa: E402
    backlog_grows,
    max_rate,
    open_loop_timings,
    percentile,
    rung_passes,
    self_times,
    spread,
    steps_to_verify,
    summarize,
    tail_percentile,
)
from tracing import Recorder  # noqa: E402


def test_tail_percentile() -> None:
    # floor(n * (1 - p/100)) samples lie beyond the p-th percentile.
    assert tail_percentile(100_000) == 99.99   # 10 beyond
    assert tail_percentile(99_999) == 99.9     # 9 beyond p99.99, 99 beyond p99.9
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) is None
    s = summarize([float(i) for i in range(1, 1001)])
    assert (s["n"], s["tail_p"]) == (1000, 99.0)
    assert abs(s["p50"] - 500.5) < 1e-12
    assert abs(s["tail"] - percentile([float(i) for i in range(1, 1001)], 99.0)) < 1e-12
    assert sum(1 for v in range(1, 1001) if v > s["tail"]) >= 10


def test_percentile_matches_linear_interpolation() -> None:
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert abs(percentile(values, 90) - 4.6) < 1e-12


def test_due_time_latency_and_lateness() -> None:
    # Two requests due at 0 and 10 ms; the first stalls 30 ms, so the
    # second is sent 20 ms late and its latency counts from its due time.
    due = [0.000, 0.010]
    sent = [0.000, 0.030]
    done = [0.030, 0.032]
    latency, late = open_loop_timings(due, sent, done)
    assert [round(x, 9) for x in latency] == [0.030, 0.022]
    assert [round(x, 9) for x in late] == [0.0, 0.020]
    # Sending early (clock jitter) is never negative lateness.
    assert open_loop_timings([1.0], [0.999], [1.5])[1] == [0.0]


def test_schedules() -> None:
    a = loadgen.poisson_schedule(100.0, 2000, seed=3)
    assert a == loadgen.poisson_schedule(100.0, 2000, seed=3)
    assert a != loadgen.poisson_schedule(100.0, 2000, seed=4)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 17.0 < a[-1] < 23.0  # 2000 arrivals at 100/s take about 20 s
    raw = loadgen.encode_route([[0.1, 2.5]])[0]
    head, body = raw.split(b"\r\n\r\n")
    assert body == b'{"demand": [0.1, 2.5]}'
    assert b"Content-Length: %d" % len(body) in head


def test_ladder_rule() -> None:
    fast = [2.0] * 990 + [15.0] * 10
    assert rung_passes(fast, failed=0, backlog=[0, 1, 0] * 100)
    # p99 over the limit
    assert not rung_passes([2.0] * 980 + [25.0] * 20, failed=0, backlog=[0] * 300)
    # any failed request
    assert not rung_passes(fast, failed=1, backlog=[0] * 300)
    # a backlog that climbs through the phase
    climbing = list(range(300))
    assert backlog_grows(climbing)
    assert not rung_passes(fast, failed=0, backlog=climbing)
    assert not backlog_grows([2, 0, 1, 2, 1, 0, 1, 2, 0])
    # highest rung passed before the first failure, in climb order
    assert max_rate([(100.0, True), (200.0, True), (300.0, False), (400.0, True)]) == 200.0
    assert max_rate([(100.0, False), (200.0, True)]) is None
    assert max_rate([(100.0, True)]) == 100.0


def test_self_time() -> None:
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},   # overlaps span 2
        {"id": 4, "parent": 1, "start": 9.0, "end": 12.0},  # runs past its parent
        {"id": 5, "parent": 3, "start": 4.0, "end": 5.0},
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert own[2] == 3.0
    assert own[3] == 2.0
    assert own[4] == 3.0
    assert own[5] == 1.0


def test_extractor_time_is_not_the_programs() -> None:
    # A span's attributes are read after it ends; the read shows as a
    # ``trace.extract`` child of the parent, so neither span is charged.
    import time

    def slow_info():
        time.sleep(0.02)
        return {"bytes": 1}

    rec = Recorder(out_dir="")
    outer = rec.begin()
    inner = rec.begin()
    rec.end(*inner, time.perf_counter(), "inner", slow_info)
    rec.end(*outer, time.perf_counter(), "outer")
    spans = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
             for s in rec.spans]
    by_name = {s["name"]: s for s in spans}
    own = self_times(spans)
    assert by_name["inner"]["end"] - by_name["inner"]["start"] < 0.01
    assert by_name["trace.extract"]["parent"] == by_name["outer"]["id"]
    assert own[by_name["outer"]["id"]] < 0.01
    attrs = {s[2]: s[5] for s in rec.spans}
    assert attrs == {"trace.extract": None, "inner": {"bytes": 1}, "outer": None}


def test_steps_to_verify() -> None:
    # Two clean phases owe every step they were served.
    clean = [[(0.0, 0.1, 0), (0.1, 0.2, 1)], [(1.0, 1.1, 3), (1.0, 1.2, 2)]]
    assert steps_to_verify(clean) == 4
    # In the phase of the first failure, only requests answered before
    # the failed one was sent are owed; later phases owe nothing.
    failing = [[(2.0, 2.1, 4), (2.2, 4.2, None), (2.3, 2.4, 6), (2.15, 2.19, 5)],
               [(5.0, 5.1, 9)]]
    assert steps_to_verify(clean + failing) == 6
    assert steps_to_verify([[(0.0, 2.0, None), (0.1, 0.2, 0)]]) == 0
    assert steps_to_verify([]) == 0


def test_spread() -> None:
    values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert 0.0 < spread(values) < 0.03
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc!r}")
            return 1
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
