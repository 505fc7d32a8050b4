"""The ``serve-open-loop`` workload: the operator's view of ``/route``.

``repro serve --scenario paper-default --rolling-window 288 --no-store``
runs in a child process (``--port 0``, every other CLI default). The
open-loop generator in ``loadgen.py`` drives it from this process over
at most ``os.cpu_count()`` connections, phase by phase:

1. an untimed warm-up;
2. 100 rps (``r100``), then 400 rps (``r400``);
3. a rate ladder for the highest rate meeting the limit.

Afterwards every served ``(step, demand)`` pair is replayed through an
offline rolling session and must give bitwise-equal loads.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import threading
import time
from dataclasses import replace
from pathlib import Path

import loadgen
import tracing
from common import Report, child_argv, median, program_env, repro_argv, stop_process
from stats import (
    max_rate,
    open_loop_timings,
    percentile,
    rung_passes,
    steps_to_verify,
    summarize,
)

SCENARIO = "paper-default"
ROLLING_WINDOW = 288
SERVE_ARGS = ("serve", "--scenario", SCENARIO, "--rolling-window", str(ROLLING_WINDOW),
              "--no-store", "--port", "0")
#: Server launches per run; the median launch-to-healthy time is set-up.
SETUP_LAUNCHES = 3
WARMUP = (150.0, 300)
#: ``r400`` runs near saturation and feeds only unbounded numbers, so it
#: keeps a fixed length while ``r100`` lasts ``--seconds``.
R400_SECONDS = 2.5
#: Ladder rungs besides r100 and r400, which count as rungs 100 and 400.
LADDER = (200.0, 300.0, 500.0, 600.0, 700.0, 800.0, 1000.0, 1200.0)
#: Every rate phase sends enough requests for a p99 with 10 samples beyond.
MIN_PHASE = 1010
BOOT_TIMEOUT_S = 60.0
_LISTEN = re.compile(r"on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` child: launch to first healthy ``/healthz``."""

    def __init__(self, argv: list[str], cwd: Path) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, env=program_env(),
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        self.lines: list[str] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self.host, self.port = self._wait_listening()
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            if _LISTEN.search(line):
                self._listening.set()
        self._listening.set()

    def _wait_listening(self) -> tuple[str, int]:
        if not self._listening.wait(BOOT_TIMEOUT_S):
            raise RuntimeError("server did not start listening")
        for line in self.lines:
            match = _LISTEN.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited during boot: " + "".join(self.lines)[-400:])

    def _wait_healthy(self) -> float:
        deadline = self.t0 + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                loadgen.get_json(self.host, self.port, "/healthz")
                return time.perf_counter() - self.t0
            except (OSError, RuntimeError):
                time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str) -> dict:
        return loadgen.get_json(self.host, self.port, path)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        stop_process(self.proc)
        self._reader.join(5)
        return self.proc.returncode


def _demand_rows(seed: int, count: int) -> list[list[float]]:
    """Seeded demand: the scenario's own traffic model with its trace
    seed replaced by ``seed``, sent in step order and wrapped at the
    trace's end, so each row keeps its time of day."""
    from repro import scenarios

    scenario = scenarios.get(SCENARIO)
    demand = scenarios.trace(replace(scenario.trace, seed=seed), scenario.market).demand
    return [demand[i % len(demand)].tolist() for i in range(count)]


class Session:
    """The generator's view of one server: phases, and what was served."""

    def __init__(self, server: Server, rows: list[list[float]]) -> None:
        self.server = server
        self.rows = rows
        self.requests = loadgen.encode_route(rows)
        self.next_row = 0
        self.conns = [loadgen.Connection(server.host, server.port)
                      for _ in range(max(1, os.cpu_count() or 1))]
        self.served: dict[int, tuple[int, list[float]]] = {}  # step -> (row, loads)
        self.send_s_by_step: dict[int, float] = {}
        #: Per phase, in order: ``(sent, done, step)`` of each request,
        #: ``step`` None when the request failed.
        self.phases: list[list[tuple[float, float, int | None]]] = []
        self.sent = 0
        self.failed = 0
        self.late: list[float] = []

    def phase(self, due: list[float]) -> dict:
        n = len(due)
        first = self.next_row
        self.next_row += n
        out = loadgen.run_phase(self.conns, self.requests[first:first + n], due)
        latency, late = open_loop_timings(out["due"], out["sent"], out["done"])
        failed = 0
        record = []
        for i, (status, body) in enumerate(zip(out["status"], out["bodies"])):
            if status != 200:
                failed += 1
                record.append((out["sent"][i], out["done"][i], None))
                continue
            payload = json.loads(body)
            self.served[payload["step"]] = (first + i, list(payload["loads"].values()))
            self.send_s_by_step[payload["step"]] = out["done"][i] - out["sent"][i]
            record.append((out["sent"][i], out["done"][i], payload["step"]))
        self.phases.append(record)
        self.sent += n
        self.failed += failed
        self.late.extend(late)
        self._settle()
        return {"latency_ms": [x * 1000 for x in latency], "failed": failed,
                "backlog": out["backlog"]}

    def _settle(self) -> None:
        deadline = time.perf_counter() + 10
        while self.server.get("/stats")["queue_depth"] and time.perf_counter() < deadline:
            time.sleep(0.01)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def _rate_phase(rate: float, seconds: float, seed: int) -> list[float]:
    count = max(MIN_PHASE, round(rate * seconds))
    return loadgen.poisson_schedule(rate, count, seed)


def _plan(seconds: float, seed: int) -> list[tuple[str, str, float | None, list[float]]]:
    """Every phase as ``(name, kind, rate, due offsets)``, fixed before the
    server is contacted. ``r100`` and ``r400`` double as ladder rungs."""
    # The ladder comes last because its length varies from run to run:
    # routing cost depends on where in the price calendar a step falls, so
    # every timed phase before it covers the same steps in every run.
    plan = [("warmup", "warmup", None,
             loadgen.poisson_schedule(WARMUP[0], WARMUP[1], seed + 1)),
            ("r100", "rate", 100.0, _rate_phase(100.0, seconds, seed + 2)),
            ("r400", "rate", 400.0, _rate_phase(400.0, R400_SECONDS, seed + 3))]
    for k, rate in enumerate(LADDER):
        plan.append((f"ladder{rate:g}", "rung", rate, _rate_phase(rate, 2.0, seed + 10 + k)))
    return plan


def _drive(server: Server, seed: int, seconds: float) -> dict:
    """Run every phase against ``server``; returns per-phase results and
    the session (served pairs, counters)."""
    plan = _plan(seconds, seed)
    planned = sum(len(due) for *_, due in plan)
    remaining = server.get("/stats")["steps_remaining"]
    if remaining is not None and planned > remaining:
        raise RuntimeError(f"plan needs {planned} steps, the horizon has {remaining}")
    session = Session(server, _demand_rows(seed, planned))
    results: dict[str, dict] = {}
    cpu: dict[str, float] = {}
    before = server.get("/stats")
    rungs: dict[float, bool] = {}
    try:
        for name, kind, rate, due in plan:
            if kind == "rung" and any(not ok and r < rate for r, ok in rungs.items()):
                continue  # the ladder stops at its first failing rung
            c0 = server.cpu_s()
            results[name] = res = session.phase(due)
            if kind == "rate":
                cpu[name] = server.cpu_s() - c0
            after = server.get("/stats")
            batches = after["batches_total"] - before["batches_total"]
            rows = after["batch_rows_total"] - before["batch_rows_total"]
            res["batch_size_mean"] = rows / batches if batches else 0.0
            before = after
            if rate is not None:
                rungs[rate] = rung_passes(res["latency_ms"], res["failed"], res["backlog"])
        peak = server.peak_rss_mib()
    finally:
        session.close()
    return {"results": results, "cpu": cpu,
            "ladder": sorted(rungs.items()), "session": session, "peak_rss_mib": peak}


def _replay(session: Session) -> tuple[bool, int, str]:
    """Feed the served pairs, in step order, through an offline rolling
    session; the per-cluster loads must be bitwise equal.

    Each answer must name its own step, and the served steps must run
    without a gap from step 0 through every step that
    ``stats.steps_to_verify`` says the client can account for: all of
    them, up to the first failed request.
    """
    import numpy as np
    from repro import scenarios

    steps = sorted(session.served)
    contiguous = 0
    while contiguous < len(steps) and steps[contiguous] == contiguous:
        contiguous += 1
    answered = sum(step is not None for phase in session.phases for *_, step in phase)
    if answered != len(steps):
        return False, 0, f"{answered} answers name {len(steps)} distinct steps"
    need = steps_to_verify(session.phases)
    if contiguous < need:
        return False, contiguous, f"but {need} are owed; step {contiguous} is missing"
    if not contiguous:
        return False, 0, "no served steps"
    offline = scenarios.open_rolling_session(scenarios.get(SCENARIO),
                                             window_steps=ROLLING_WINDOW)
    rows = np.array([session.rows[session.served[s][0]] for s in range(contiguous)])
    allocations = offline.feed(rows)
    for step in range(contiguous):
        expected = allocations[step].sum(axis=0).tolist()
        if expected != session.served[step][1]:
            return False, contiguous, f"step {step} loads differ"
    detail = ("" if contiguous == len(steps)
              else f"{len(steps) - contiguous} steps after the first failed request")
    return True, contiguous, detail


def _buckets_ok(stats: dict) -> bool:
    return stats["requests_total"] == (
        stats["batch_rows_total"] + stats["rejected_total"]
        + stats["rejected_backpressure_total"] + stats["errors_total"]
        + stats["cancelled_total"]
    )


def _request_wall(run: dict) -> float:
    """What one routed request costs its client: the first quartile of
    the latency at 100 rps, in seconds, timed from the due time.

    Not the median: when the CPUs are contended, requests overlap more
    often, an overlapping request waits out the server's 5 ms batch
    window, and the longer busy period makes the next request overlap
    too. The median then jumps from about 2.5 to about 7 ms for as long
    as the contention lasts, while the first quartile still times the
    lone request's path (HTTP, scalar ``allocate``, JSON).
    """
    return percentile(run["results"]["r100"]["latency_ms"], 25) / 1000


def serve_open_loop(report: Report, work: Path, seconds: float, trace: bool) -> None:
    seed = report.seed
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = Server(repro_argv(*SERVE_ARGS), work)
        setups.append(server.setup_s)
        server.stop()
    server = Server(repro_argv(*SERVE_ARGS), work)
    setups.append(server.setup_s)
    report.metric("setup_s", median(setups), "s", len(setups))
    try:
        run = _drive(server, seed, seconds)
        final = server.get("/stats")
    finally:
        code = server.stop()
    report.check("server drains and exits 0", code == 0, f"exit {code}")

    res, session = run["results"], run["session"]
    report.attempted += session.sent
    report.failed += session.failed
    report.metric("wall_s", _request_wall(run), "s", len(res["r100"]["latency_ms"]))
    report.metric("cpu_s", run["cpu"]["r100"] + run["cpu"]["r400"], "s")
    report.metric("peak_rss_mib", run["peak_rss_mib"], "MiB")

    report.check("warmup has no failed request", res["warmup"]["failed"] == 0,
                 f"{res['warmup']['failed']} failed")
    for rate in ("r100", "r400"):
        s = summarize(res[rate]["latency_ms"])
        report.notes.append(
            f"route_p50_ms.{rate} {s['p50']:.4f} ms, route_p{s['tail_p']:g}_ms.{rate} "
            f"{s['tail']:.4f} ms (n={s['n']}, failed={res[rate]['failed']}, "
            f"batch_size_mean={res[rate]['batch_size_mean']:.3f})"
        )
        report.layers[f"e2e.route_p50_ms.{rate}"] = s["p50"]
        report.layers[f"e2e.route_p99_ms.{rate}"] = percentile(res[rate]["latency_ms"], 99)
        report.layers[f"serve.batch_size_mean.{rate}"] = res[rate]["batch_size_mean"]
        report.check(f"{rate} has no failed request", res[rate]["failed"] == 0,
                     f"{res[rate]['failed']} failed")
    top = max_rate(run["ladder"]) or 0.0
    report.notes.append("ladder " + " ".join(f"{r:g}:{'ok' if ok else 'FAIL'}"
                                             for r, ok in run["ladder"]))
    report.notes.append(
        f"max_rate_rps {top:g} req/s (limit p99 <= 20 ms, n={len(run['ladder'])} rungs)"
    )
    report.layers["e2e.max_rate_rps"] = top
    report.layers["client.sent"] = session.sent
    report.layers["client.failed"] = session.failed
    report.layers["client.late_p99_ms"] = percentile(session.late, 99) * 1000

    ok, replayed, detail = _replay(session)
    report.check("served loads replay bitwise offline", ok, f"{replayed} steps {detail}".strip())
    report.check("/stats request buckets reconcile", _buckets_ok(final))
    for key in ("requests_total", "batches_total", "batch_size_mean", "errors_total",
                "rejected_total", "rejected_backpressure_total", "cancelled_total"):
        report.layers[f"serve.{key}"] = final[key]

    if trace:
        _traced(report, work, seed, seconds, wall=report.metrics["wall_s"][0])


def _traced(report: Report, work: Path, seed: int, seconds: float, wall: float) -> None:
    spans_dir = work / "spans"
    spans_dir.mkdir()
    server = Server(child_argv("cli", *SERVE_ARGS, trace_dir=spans_dir), work)
    try:
        run = _drive(server, seed, seconds)
    finally:
        code = server.stop()
    report.check("traced server exits 0", code == 0, f"exit {code}")
    dumps = tracing.load_dumps(spans_dir)
    layers = tracing.layer_metrics(dumps)
    split = tracing.serve_split(dumps, run["session"].send_s_by_step)
    for key, values in (("batcher_route_s", split["route"]), ("queue_wait_s", split["queue"]),
                        ("http_s", split["http"])):
        layers[f"serve.{key}.p50"] = percentile(values, 50) if values else 0.0
        layers[f"serve.{key}.p99"] = percentile(values, 99) if values else 0.0
    traced_wall = _request_wall(run)
    layers["trace.overhead_s"] = traced_wall - wall
    layers["trace.overhead_share"] = (traced_wall - wall) / wall
    report.layers.update(layers)

