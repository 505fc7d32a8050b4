"""Span recorder that times the program's public layer functions from outside.

``install()`` rebinds each function named in ``LAYERS`` at every name
where callers look it up (the defining module and every ``repro``
module that imported it by name, or the class for methods), so the
program runs unmodified. Each call becomes one span: name, start, end,
parent span and a few attributes (rows, bytes, hit, step). Spans stay
in memory and are written out once, when the process ends (forked pool
workers included, through ``multiprocessing.util.Finalize``).

``layer_metrics()`` turns the written spans into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path

from stats import percentile, self_times

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)


class Recorder:
    """In-memory spans of one process, dumped once to ``out_dir``."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.cache_base = _cache_counts()

    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            # A forked pool worker: drop the parent's spans and dump our
            # own when the worker process exits.
            import multiprocessing.util

            self._reset()
            multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def begin(self) -> tuple[int, int | None, contextvars.Token, float]:
        self._check_fork()
        sid = self.pid * 10_000_000 + next(self._ids)
        parent = _current.get()
        return sid, parent, _current.set(sid), time.perf_counter()

    def end(self, sid, parent, token, t0, t1, name: str, info=None, call=()) -> None:
        """Close a span that ran from ``t0`` to ``t1``; then read its
        attributes with ``info(*call)``. That read is the recorder's work,
        not the program's: it is recorded as a ``trace.extract`` child of
        the parent span, so the parent's self time excludes it too."""
        _current.reset(token)
        attrs = info(*call) if info else None
        if info and parent is not None:
            self.spans.append((self.pid * 10_000_000 + next(self._ids), parent,
                               "trace.extract", t1, time.perf_counter(), None))
        self.spans.append((sid, parent, name, t0, t1, attrs))

    def add(self, name: str, t0: float, t1: float, attrs: dict | None = None) -> None:
        """Record a span measured by the caller (no parent)."""
        self._check_fork()
        sid = self.pid * 10_000_000 + next(self._ids)
        self.spans.append((sid, None, name, t0, t1, attrs))

    def dump(self, phases: dict | None = None) -> None:
        from repro.sim import profiling

        if phases is None:
            # Forked workers inherit the parent's ``profiled()`` collector.
            phases = profiling._active[0] if profiling._active else {}
        counts = _cache_counts()
        caches = {k: [counts[k][0] - self.cache_base[k][0], counts[k][1] - self.cache_base[k][1]]
                  for k in counts}
        record = {
            "pid": self.pid,
            "phases": dict(phases),
            "caches": caches,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
                 "attrs": s[5] or {}}
                for s in self.spans
            ],
        }
        path = Path(self.out_dir) / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)


def _cache_counts() -> dict[str, list[int]]:
    """In-process memo hits/misses of the scenario runner's caches."""
    runner = sys.modules.get("repro.scenarios.runner")
    if runner is None:
        return {"run": [0, 0], "dataset": [0, 0]}
    run, data = runner._run_cached.cache_info(), runner._dataset_cached.cache_info()
    return {"run": [run.hits, run.misses], "dataset": [data.hits, data.misses]}


# -- attribute extractors: (args, kwargs, result) -> attrs -------------------


def _rows(index):
    def get(args, kwargs, result):
        return {"rows": len(args[index])}

    return get


def _router_rows(args, kwargs, result):
    return {"rows": len(args[1]), "router": type(args[0]).__name__}


def _replicas(args, kwargs, result):
    return {"replicas": len(args[0])}


def _saved(args, kwargs, result):
    return {"bytes": os.path.getsize(result) if result is not None else 0}


def _loaded(args, kwargs, result):
    store, kind, spec = args[0], args[1], args[2]
    path = store.path_for(kind, spec)
    hit = result is not None
    return {"hit": hit, "bytes": os.path.getsize(path) if hit else 0}


def _routed(args, kwargs, result):
    return {"row": id(args[1]), "step": result[0] if result is not None else None}


def _fed(args, kwargs, result):
    return {"rows": [id(demand) for demand, _ in args[1]]}


# -- wrappers ----------------------------------------------------------------


def _wrap(rec: Recorder, fn, name: str, info=None):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            sid, parent, token, t0 = rec.begin()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                rec.end(sid, parent, token, t0, time.perf_counter(), name, info,
                        (args, kwargs, result))

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, token, t0 = rec.begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(sid, parent, token, t0, time.perf_counter(), name, info,
                    (args, kwargs, result))

    for attr in ("cache_clear", "cache_info"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _wrap_generator(rec: Recorder, fn, name: str):
    """Time each ``next()`` of the generator ``fn`` returns (lazy planning)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                rec.add(name, t0, time.perf_counter())
                return
            rec.add(name, t0, time.perf_counter())
            yield item

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _timed_pool(rec: Recorder, base):
    """A ``ProcessPoolExecutor`` that records each task from submission to
    result, as the parent sees it."""

    class TimedPool(base):
        def submit(self, fn, *args, **kwargs):
            t0 = time.perf_counter()
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(
                lambda _f: rec.add("sweeps.group", t0, time.perf_counter(),
                                   {"jobs": self._max_workers})
            )
            return future

    return TimedPool


#: (module, attribute, span name, attribute extractor). Dotted attributes
#: name a method on a class.
LAYERS = (
    ("repro.scenarios.runner", "run", "scenarios.run", None),
    ("repro.scenarios.runner", "dataset", "markets.dataset", None),
    ("repro.scenarios.runner", "trace", "traffic.trace", None),
    ("repro.sim.engine", "simulate", "sim.simulate", None),
    ("repro.sim.engine", "simulate_many", "sim.simulate_many", _replicas),
    ("repro.sim.session", "RoutingSession.feed", "sim.feed", _rows(1)),
    ("repro.sim.rolling", "RollingSession.feed", "sim.feed", _rows(1)),
    ("repro.sim.rolling", "RollingSession._fetch_next", "sim.window_open", None),
    ("repro.routing.base", "greedy_fill_batch", "routing.greedy_fill_batch", _rows(0)),
    ("repro.artifacts.store", "ArtifactStore.save", "artifacts.save", _saved),
    ("repro.artifacts.store", "ArtifactStore.load", "artifacts.load", _loaded),
    ("repro.sweeps.executor", "_reduce_group", "sweeps.group_work", None),
    ("repro.sweeps.checkpoint", "CampaignCheckpoint.bank", "sweeps.bank", None),
    ("repro.sweeps.streaming", "finalize", "sweeps.finalize", None),
    ("repro.serve.batcher", "MicroBatcher.route", "serve.batcher_route", _routed),
    ("repro.serve.batcher", "MicroBatcher._feed", "serve.batch_feed", _fed),
)

ROUTERS = (
    ("repro.routing.price", "PriceConsciousRouter"),
    ("repro.routing.joint", "JointOptimizationRouter"),
    ("repro.routing.akamai", "BaselineProximityRouter"),
    ("repro.routing.static", "StaticSingleHubRouter"),
)


def install(rec: Recorder) -> None:
    """Wrap every layer function; import the program's modules first so
    every by-name import site exists to be rebound."""
    import importlib

    for name in ("repro.cli", "repro.experiments", "repro.sweeps", "repro.serve"):
        importlib.import_module(name)

    for mod_name, attr, span, info in LAYERS:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(rec, cls.__dict__[meth], span, info))
        else:
            original = getattr(module, attr)
            wrapped = _wrap(rec, original, span, info)
            setattr(module, attr, wrapped)
            _rebind(original, wrapped)

    for mod_name, cls_name in ROUTERS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        cls.allocate = _wrap(rec, cls.__dict__["allocate"], "routing.allocate")
        cls.allocate_batch = _wrap(rec, cls.__dict__["allocate_batch"],
                                   "routing.allocate_batch", _router_rows)

    experiments = importlib.import_module("repro.experiments")
    for fid, module in experiments.REGISTRY.items():
        module.run = _wrap(rec, module.run, f"experiments.{fid}")

    executor = importlib.import_module("repro.sweeps.executor")
    executor.plan_groups = _wrap_generator(rec, executor.plan_groups, "sweeps.plan")
    executor.ProcessPoolExecutor = _timed_pool(rec, executor.ProcessPoolExecutor)


# -- per-layer metrics -------------------------------------------------------


def load_dumps(out_dir: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


def layer_metrics(dumps: list[dict], wall_s: float | None = None) -> dict[str, float]:
    """Per-layer metrics from the span dumps of every process of one run.

    Totals named ``*_s`` are *self* time (the span minus the time its
    child spans cover); ``*.p50``/``*.p99`` are per-call durations.
    """
    spans = [s for d in dumps for s in d["spans"]]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    def inclusive(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    def dur_pct(spans_, p):
        durs = [s["end"] - s["start"] for s in spans_]
        return percentile(durs, p) if durs else 0.0

    m: dict[str, float] = {}
    for fid in ("fig15", "fig16", "fig17", "fig19"):
        m[f"experiments.{fid}_s"] = inclusive(f"experiments.{fid}")

    run_hits = sum(d["caches"]["run"][0] for d in dumps)
    run_miss = sum(d["caches"]["run"][1] for d in dumps)
    m["scenarios.run_calls"] = calls("scenarios.run")
    m["scenarios.run_s"] = self_s("scenarios.run")
    m["scenarios.memo_hit_ratio"] = ratio(run_hits, run_hits + run_miss)

    ds_hits = sum(d["caches"]["dataset"][0] for d in dumps)
    ds_miss = sum(d["caches"]["dataset"][1] for d in dumps)
    m["markets.dataset_calls"] = calls("markets.dataset")
    m["markets.dataset_s"] = self_s("markets.dataset")
    m["markets.dataset_hit_ratio"] = ratio(ds_hits, ds_hits + ds_miss)

    m["traffic.trace_calls"] = calls("traffic.trace")
    m["traffic.trace_s"] = self_s("traffic.trace")

    m["sim.simulate_calls"] = calls("sim.simulate")
    m["sim.simulate_s"] = self_s("sim.simulate")
    m["sim.simulate_many_calls"] = calls("sim.simulate_many")
    m["sim.simulate_many_replicas"] = total("sim.simulate_many", "replicas")
    m["sim.simulate_many_s"] = self_s("sim.simulate_many")
    for phase in ("precompute", "routing", "greedy_repair", "reduce", "finalize"):
        m[f"sim.{phase}_s"] = sum(d["phases"].get(phase, 0.0) for d in dumps)

    # A rolling feed delegates to its window's session feed: count the
    # outermost feed of each call only.
    feeds = [s for s in by_name.get("sim.feed", ())
             if s["parent"] is None or by_id.get(s["parent"], {}).get("name") != "sim.feed"]
    m["sim.feed_calls"] = len(feeds)
    m["sim.feed_rows"] = sum(s["attrs"].get("rows", 0) for s in feeds)
    m["sim.feed_s.p50"] = dur_pct(feeds, 50)
    m["sim.feed_s.p99"] = dur_pct(feeds, 99)
    m["sim.window_opens"] = calls("sim.window_open")
    m["sim.window_open_s"] = inclusive("sim.window_open")

    m["routing.allocate_calls"] = calls("routing.allocate")
    m["routing.allocate_s"] = self_s("routing.allocate")
    m["routing.allocate_batch_calls"] = calls("routing.allocate_batch")
    m["routing.allocate_batch_rows"] = total("routing.allocate_batch", "rows")
    m["routing.allocate_batch_s"] = self_s("routing.allocate_batch")
    m["routing.greedy_fill_batch_rows"] = total("routing.greedy_fill_batch", "rows")
    m["routing.greedy_fill_batch_s"] = self_s("routing.greedy_fill_batch")
    price_batches = {s["id"]: s for s in by_name.get("routing.allocate_batch", ())
                     if s["attrs"].get("router") == "PriceConsciousRouter"}
    spilled = sum(s["attrs"]["rows"] for s in by_name.get("routing.greedy_fill_batch", ())
                  if s["parent"] in price_batches)
    m["routing.spill_row_share"] = ratio(
        spilled, sum(s["attrs"]["rows"] for s in price_batches.values())
    )

    m["artifacts.save_calls"] = calls("artifacts.save")
    m["artifacts.save_bytes"] = total("artifacts.save", "bytes")
    m["artifacts.save_s"] = self_s("artifacts.save")
    loads = by_name.get("artifacts.load", ())
    m["artifacts.load_calls"] = len(loads)
    m["artifacts.load_bytes"] = total("artifacts.load", "bytes")
    m["artifacts.load_s"] = self_s("artifacts.load")
    m["artifacts.load_hit_ratio"] = ratio(sum(1 for s in loads if s["attrs"]["hit"]), len(loads))

    groups = by_name.get("sweeps.group", ())
    group_durs = [s["end"] - s["start"] for s in groups]
    m["sweeps.plan_s"] = inclusive("sweeps.plan")
    m["sweeps.groups"] = len(groups)
    m["sweeps.group_s.p50"] = percentile(group_durs, 50) if group_durs else 0.0
    m["sweeps.group_s.max"] = max(group_durs, default=0.0)
    m["sweeps.bank_s"] = inclusive("sweeps.bank")
    m["sweeps.finalize_s"] = inclusive("sweeps.finalize")
    # Busy time is measured inside the workers; group_s above also holds
    # the time a submitted group queued for a free worker.
    jobs = groups[0]["attrs"]["jobs"] if groups else 0
    m["sweeps.worker_busy_share"] = ratio(inclusive("sweeps.group_work"),
                                          jobs * wall_s if wall_s else 0.0)
    return m


def serve_split(dumps: list[dict], client_by_step: dict[int, float]) -> dict[str, list[float]]:
    """Per-request split of a served request: batcher route time, queue
    wait (route minus the feed of its batch) and HTTP time (client latency
    from send minus route time). ``client_by_step`` maps a served step to
    the client's send-to-response seconds."""
    spans = [s for d in dumps for s in d["spans"]]
    feeds = sorted((s for s in spans if s["name"] == "serve.batch_feed"),
                   key=lambda s: s["start"])
    feed_of: dict[int, list[dict]] = {}
    for s in feeds:
        for row in s["attrs"]["rows"]:
            feed_of.setdefault(row, []).append(s)
    route_s, queue_s, http_s = [], [], []
    for s in spans:
        if s["name"] != "serve.batcher_route" or s["attrs"].get("step") is None:
            continue
        dur = s["end"] - s["start"]
        route_s.append(dur)
        # ``id()`` values recycle: take the first feed of this row object
        # that started after the request was queued.
        feed = next((f for f in feed_of.get(s["attrs"]["row"], ())
                     if f["start"] >= s["start"]), None)
        if feed is not None:
            queue_s.append(max(0.0, dur - (feed["end"] - feed["start"])))
        client = client_by_step.get(s["attrs"]["step"])
        if client is not None:
            http_s.append(max(0.0, client - dur))
    return {"route": route_s, "queue": queue_s, "http": http_s}
