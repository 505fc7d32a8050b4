"""The discrete-time routing simulator (§6.1).

"We constructed a simple discrete time simulator that stepped through
the Akamai usage statistics, letting a routing module (with a global
view of the network) allocate traffic to clusters at each time step.
Using these allocations, we modeled each cluster's energy consumption,
and used observed hourly market prices to calculate energy
expenditures."

The engine walks a step grid (hourly or five-minute), hands the router
the *lagged* prices (default one hour — §6.1 assumes the system reacts
to the previous hour's prices) and the effective limits (cluster
capacity, optionally the 95/5 ceilings), and records loads, paid
prices, and the client-server distance distribution into a
:class:`~repro.sim.results.SimulationResult`.

Every run mode drives one core of three parts:

1. :class:`_Window` — the shared precompute, built once per step grid
   by :func:`_prepare`: seen and paid prices, the arrays the router
   sees in the engine dtype, the capacity and 95/5 limits, the burst
   threshold, the distance bins, and the validated server counts.
   Nothing in it depends on demand, so replicas share it.
2. :func:`_route` — allocates rows of demand under the per-step
   contract (capped limits first, plain capacity when the router raises
   under 95/5 caps). It is the only place that retry lives. Rows go
   through the router's vectorised ``allocate_batch`` (via
   :func:`repro.routing.base.batch_allocate`), except a single row,
   which takes the scalar ``allocate`` call, and the rows the retry
   replays one step at a time.
3. :class:`_Run` — one replica's state: loads, 95/5 tracker, chunked
   reducer and cursor. :meth:`_Run.fold` accounts allocations at the
   cursor, reducing at the chunk boundaries every path shares;
   :meth:`_Run.result` packages the run.

:func:`simulate` is one run fed chunk by chunk (chunks may route on a
thread pool; folds stay serial and in order). :func:`simulate_many` is
R runs over one window, whose routing calls fuse rows from several
replicas — the router contract (slice ``t`` equals the scalar
``allocate`` on step ``t``) makes fused calls bit-identical to
per-replica ones. :class:`~repro.sim.session.RoutingSession` is a
cursor around one run, fed as demand arrives.

:func:`simulate_per_step` keeps the original one-``allocate``-call-per-
step loop as the independent reference; every other path is required
(and tested) to reproduce it *bit for bit*. It folds through the same
:class:`_AllocationReducer`, so even the floating-point summation order
of the distance histogram is part of the contract.

Chunking is sized by memory, not by a step count: a chunk's
``(chunk, n_states, n_clusters)`` float64 allocation tensor is kept
under ``BATCH_CHUNK_MIB`` (32 MiB) by :func:`batch_chunk_steps`, which
takes the largest power of two under the budget. At the paper scale
(49 states x 9 clusters, 3528 bytes per step) that is 8192 steps — the
historical hard-coded chunk, so histogram reduction order (and every
committed golden) is unchanged; smaller rosters get proportionally
longer chunks under the same ceiling.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

import numpy as np

from repro import kernels
from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.markets.generator import MarketDataset
from repro.routing.base import Router, RoutingProblem, batch_allocate
from repro.sim import profiling
from repro.sim.results import DISTANCE_BIN_KM, DISTANCE_MAX_KM, SimulationResult
from repro.traffic.percentile import Bandwidth95Tracker
from repro.traffic.trace import TrafficTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "SimulationOptions",
    "simulate",
    "simulate_many",
    "simulate_per_step",
    "batch_chunk_steps",
    "BATCH_CHUNK_MIB",
]

#: Memory ceiling, in MiB, for one chunk's ``(chunk, n_states,
#: n_clusters)`` float64 allocation tensor. The chunk step count is
#: *derived* from the problem shape under this budget rather than
#: hard-coded, so small rosters batch more steps per call and large
#: ones never blow past the ceiling.
BATCH_CHUNK_MIB = 32.0


def batch_chunk_steps(n_states: int, n_clusters: int) -> int:
    """Steps per reduction chunk for a problem shape.

    The largest power of two whose allocation tensor stays under
    ``BATCH_CHUNK_MIB`` (minimum 1). The power-of-two floor keeps the
    paper-scale answer at exactly 8192 — the chunk size both pipelines
    historically hard-coded — so the chunked float summation order of
    the distance histogram, and with it every committed golden, is
    preserved. The chunk count is deliberately a function of the
    problem shape only (never of replica count or trace length):
    chunk boundaries are part of the bit-identity contract between
    :func:`simulate`, :func:`simulate_per_step`, and
    :func:`simulate_many`.
    """
    per_step = 8 * n_states * n_clusters
    budget = int(BATCH_CHUNK_MIB * 1024 * 1024)
    steps = max(1, budget // per_step)
    return 1 << (steps.bit_length() - 1)


class _AllocationReducer:
    """Chunked reduction of per-step allocations into (state, cluster) totals.

    Floating-point addition is not associative, so the *order* in which
    per-step allocation tensors are summed is part of the engine's
    contract: every path pushes every step's allocation through this
    reducer — a step-ordered chunk buffer reduced with ``sum(axis=0)``
    at chunk boundaries — which makes the distance histograms of every
    run mode and :func:`simulate_per_step` agree *bit for bit*, not
    merely to rounding tolerance.

    The chunk buffer holds allocations in the engine dtype (so a
    float32 run never materialises float64 copies of its chunks) while
    the running totals always accumulate in float64 —
    ``sum(axis=0, dtype=np.float64)`` is the identical operation on the
    default float64 path and the accuracy-preserving one on float32.
    """

    def __init__(
        self, n_steps: int, n_states: int, n_clusters: int, dtype: np.dtype | type = np.float64
    ) -> None:
        self.chunk = min(n_steps, batch_chunk_steps(n_states, n_clusters))
        self._buffer = np.zeros((self.chunk, n_states, n_clusters), dtype=dtype)
        self.total = np.zeros((n_states, n_clusters))

    def put(self, offsets: slice | int, allocations: np.ndarray) -> None:
        """Record allocations at chunk-relative step offsets."""
        self._buffer[offsets] = allocations

    def reduce_chunk(self, size: int) -> None:
        """Fold the first ``size`` buffered steps into the totals."""
        self.total += self._buffer[:size].sum(axis=0, dtype=np.float64)

    def histogram(self, bin_index: np.ndarray, n_bins: int) -> np.ndarray:
        """The demand-weighted distance histogram of the whole run."""
        return np.bincount(bin_index, weights=self.total.ravel(), minlength=n_bins)


@dataclass(frozen=True, slots=True)
class SimulationOptions:
    """Controls for one simulation run.

    Attributes
    ----------
    reaction_delay_hours:
        Hours between a price being set and the router seeing it.
        §6.1: "we assumed the system reacted to the previous hour's
        prices" — delay 1. Fig. 20 sweeps 0-30.
    capacity_margin:
        Fraction of each cluster's capacity the router may fill; the
        paper's optimizer avoids clusters "nearing capacity".
    relax_capacity:
        Ignore per-cluster capacity entirely (used with the static
        single-hub router, whose site notionally hosts the whole
        fleet).
    bandwidth_caps:
        Per-cluster 95th-percentile ceilings (hits/s) from a baseline
        run. When set, the run "follows original 95/5 constraints":
        clusters may burst above their cap only within the free 5% of
        intervals. Validated and normalised to a read-only 1-D float
        array at construction; the engine checks its length against
        the deployment.
    """

    reaction_delay_hours: int = 1
    capacity_margin: float = 0.97
    relax_capacity: bool = False
    bandwidth_caps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.reaction_delay_hours < 0:
            raise ConfigurationError("reaction delay must be non-negative")
        if not 0.0 < self.capacity_margin <= 1.0:
            raise ConfigurationError("capacity margin must be in (0, 1]")
        if self.bandwidth_caps is not None:
            try:
                caps = np.asarray(self.bandwidth_caps, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    "bandwidth caps must be convertible to a float array"
                ) from exc
            if caps.ndim != 1 or caps.size == 0:
                raise ConfigurationError(
                    "bandwidth caps must be a non-empty 1-D per-cluster array, "
                    f"got shape {caps.shape}"
                )
            if not np.all(np.isfinite(caps)) or np.any(caps < 0):
                raise ConfigurationError("bandwidth caps must be finite and non-negative")
            caps = caps.copy()
            caps.setflags(write=False)
            object.__setattr__(self, "bandwidth_caps", caps)


def _hour_indices(
    start: datetime, step_seconds: int, n_steps: int, dataset: MarketDataset
) -> np.ndarray:
    """Map every step of a grid to its hour index in the market calendar."""
    calendar = dataset.calendar
    offset_seconds = (start - calendar.start).total_seconds()
    if offset_seconds < 0:
        raise ConfigurationError("trace starts before the market calendar")
    step_starts = offset_seconds + np.arange(n_steps) * step_seconds
    hours = (step_starts // SECONDS_PER_HOUR).astype(np.int64)
    if hours[-1] >= calendar.n_hours:
        raise ConfigurationError("trace extends past the market calendar")
    return hours


@dataclass(frozen=True, slots=True)
class _Window:
    """The shared precompute: everything a run derives before any demand.

    ``prices``, ``limits`` and ``capacity_limits`` are what the router
    sees, in the engine dtype: on the default float64 path they are the
    float64 arrays themselves, while a float32 problem casts them once
    so every routing call runs single-precision end to end. Billing
    (``paid_prices``), loads and the reducer totals stay float64.
    """

    problem: RoutingProblem
    start: datetime
    step_seconds: int
    n_steps: int
    seen_prices: np.ndarray
    paid_prices: np.ndarray
    prices: np.ndarray
    limits: np.ndarray
    capacity_limits: np.ndarray
    #: The 95/5 ceilings (each run keeps its own tracker), or None.
    caps: np.ndarray | None
    #: Rows whose total demand exceeds this must burst above the caps.
    burst_total: float
    bin_index: np.ndarray
    n_bins: int
    server_counts: np.ndarray
    accounting_capacities: np.ndarray

    def strict_burst(self, router: Router) -> bool:
        """Whether burst rows may be batched instead of replayed.

        Requires the router's ``strict_infeasibility`` promise *and* the
        float64 engine: the burst predicate is float-identical to
        greedy_fill's infeasibility test only when both run at the same
        precision as the precompute.
        """
        return (
            self.caps is not None
            and self.problem.dtype == np.float64
            and bool(getattr(router, "strict_infeasibility", False))
        )


def _prepare(
    dataset: MarketDataset,
    problem: RoutingProblem,
    opts: SimulationOptions,
    start: datetime,
    step_seconds: int,
    n_steps: int,
    server_counts: np.ndarray | None = None,
    router_prices: np.ndarray | None = None,
) -> _Window:
    """Precompute one window: prices, limits, burst threshold, accounting."""
    deployment = problem.deployment
    n_clusters = deployment.n_clusters

    default_counts = np.array([c.n_servers for c in deployment.clusters], dtype=float)
    if server_counts is None:
        counts = default_counts
        accounting_capacities = deployment.capacities
    else:
        counts = np.array(server_counts, dtype=float)
        if counts.shape != (n_clusters,):
            raise ConfigurationError("server_counts must have one entry per cluster")
        # Energy accounting must see the capacity the *relocated* fleet
        # provides at each site, or utilization (load / capacity) is
        # computed against the wrong machine count.
        hits_per_server = deployment.total_capacity / default_counts.sum()
        accounting_capacities = counts * hits_per_server

    hour_idx = _hour_indices(start, step_seconds, n_steps, dataset)
    hub_columns = np.array([dataset.hub_column(code) for code in deployment.hub_codes])
    if router_prices is not None:
        seen_prices = np.asarray(router_prices, dtype=float)
        if seen_prices.shape != (n_steps, n_clusters):
            raise ConfigurationError(
                f"router_prices must be (n_steps, n_clusters), got {seen_prices.shape}"
            )
    else:
        lagged = dataset.lagged_price_matrix(opts.reaction_delay_hours)
        seen_prices = lagged[hour_idx][:, hub_columns]
    paid_prices = dataset.price_matrix[hour_idx][:, hub_columns]

    if opts.relax_capacity:
        capacity_limits = np.full(n_clusters, np.inf)
    else:
        capacity_limits = deployment.capacities * opts.capacity_margin

    caps = opts.bandwidth_caps
    limits = capacity_limits
    burst_total = np.inf
    if caps is not None:
        if caps.shape != (n_clusters,):
            raise ConfigurationError(
                "bandwidth caps must have one entry per cluster, got "
                f"{caps.shape[0]} for {n_clusters} clusters"
            )
        limits = np.minimum(capacity_limits, caps)
        # Rows whose national demand cannot fit under the 95/5 caps
        # burst: the router runs against the plain capacity limits
        # instead (these are exactly the intervals where the baseline
        # itself exceeded its 95th percentile, so they fall in the
        # billing-free 5% — the tracker verifies). The threshold
        # mirrors greedy_fill's infeasibility test.
        finite = np.isfinite(limits)
        total = float(np.sum(limits[finite])) + (np.inf if np.any(~finite) else 0.0)
        burst_total = total + 1e-6

    bin_index = np.minimum(
        (problem.distances.matrix / DISTANCE_BIN_KM).astype(np.int64),
        int(DISTANCE_MAX_KM / DISTANCE_BIN_KM) - 1,
    ).ravel()

    def routed(values: np.ndarray) -> np.ndarray:
        return values if problem.dtype == np.float64 else values.astype(problem.dtype)

    return _Window(
        problem=problem,
        start=start,
        step_seconds=int(step_seconds),
        n_steps=int(n_steps),
        seen_prices=seen_prices,
        paid_prices=paid_prices,
        prices=routed(seen_prices),
        limits=routed(limits),
        capacity_limits=routed(capacity_limits),
        caps=caps,
        burst_total=burst_total,
        bin_index=bin_index,
        n_bins=int(DISTANCE_MAX_KM / DISTANCE_BIN_KM),
        server_counts=counts,
        accounting_capacities=accounting_capacities,
    )


def _trace_window(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    options: SimulationOptions | None,
    server_counts: np.ndarray | None,
    router_prices: np.ndarray | None = None,
) -> _Window:
    """The window of an offline run over ``trace``."""
    if trace.state_codes != problem.state_codes:
        raise ConfigurationError("trace state order does not match routing problem")
    return _prepare(
        dataset,
        problem,
        options or SimulationOptions(),
        trace.start,
        trace.step_seconds,
        trace.n_steps,
        server_counts,
        router_prices,
    )


def _route(router: Router, window: _Window, demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Allocate rows of float64 demand, each at its own step's prices.

    Every row gets :func:`simulate_per_step`'s semantics: capped limits
    first, plain capacity when the router raises under 95/5 caps. Steps
    never interact, so the rows need not be consecutive steps of one
    trace — :func:`simulate_many` fuses rows of several replicas.

    A single row takes the router's scalar ``allocate``, skipping the
    batched dispatch (the serving fast path). More rows go through one
    ``batch_allocate`` call, replayed step by step if the router still
    raises under caps (the burst predicate below only anticipates
    total-demand overflow, not per-cluster structure such as a capped
    candidate set). Burst rows — whose total demand cannot fit under
    the summed capped limits, at most the free 5% of intervals — get
    plain capacity in that same call when the router is certain to
    raise on them (:meth:`_Window.strict_burst`; per-row limits are
    part of the batched-router contract), and are otherwise replayed,
    which any router semantics (raising, clipping, ignoring limits)
    reproduce exactly.
    """
    n_rows = demand.shape[0]
    shape = (demand.shape[1], window.problem.n_clusters)
    burst = None
    if window.caps is not None and n_rows > 1:
        burst = demand.sum(axis=1) > window.burst_total
    if window.problem.dtype != np.float64:
        demand = demand.astype(window.problem.dtype)

    def step(t: int) -> np.ndarray:
        try:
            return router.allocate(demand[t], prices[t], window.limits)
        except InfeasibleAllocationError:
            if window.caps is None:
                raise
            return router.allocate(demand[t], prices[t], window.capacity_limits)

    def batch(rows: slice | np.ndarray, limits: np.ndarray) -> np.ndarray:
        try:
            return batch_allocate(router, demand[rows], prices[rows], limits)
        except InfeasibleAllocationError:
            if window.caps is None:
                raise
            rows = np.arange(n_rows)[rows]
            out = np.empty((rows.size, *shape), dtype=demand.dtype)
            for i, t in enumerate(rows):
                out[i] = step(t)
            return out

    if n_rows == 1:
        return step(0)[None]
    if burst is None or not burst.any():
        return batch(slice(None), window.limits)
    if window.strict_burst(router):
        limits = np.where(burst[:, None], window.capacity_limits, window.limits)
        return batch(slice(None), limits)
    allocated = np.empty((n_rows, *shape), dtype=demand.dtype)
    calm = np.flatnonzero(~burst)
    if calm.size:
        allocated[calm] = batch(calm, window.limits)
    for t in np.flatnonzero(burst):
        allocated[t] = step(t)
    return allocated


class _Run:
    """One replica's state over a window: loads, tracker, reducer, cursor."""

    def __init__(self, window: _Window) -> None:
        problem = window.problem
        self.window = window
        self.loads = np.empty((window.n_steps, problem.n_clusters))
        self.tracker = (
            None if window.caps is None else Bandwidth95Tracker(window.caps, window.n_steps)
        )
        self.reducer = _AllocationReducer(
            window.n_steps, problem.n_states, problem.n_clusters, dtype=problem.dtype
        )
        self.cursor = 0

    def fold(self, allocations: np.ndarray) -> None:
        """Account the next rows' allocations, starting at the cursor.

        The reducer takes the rows split at chunk boundaries and reduces
        each chunk as it completes, so however a run's rows are batched
        its histogram is summed in one order.
        """
        t0 = self.cursor
        t1 = t0 + allocations.shape[0]
        self.loads[t0:t1] = allocations.sum(axis=1)
        if self.tracker is not None:
            self.tracker.record_batch(self.loads[t0:t1])
        chunk = self.reducer.chunk
        t = t0
        while t < t1:
            base = t - t % chunk
            end = min(t1, base + chunk)
            self.reducer.put(slice(t - base, end - base), allocations[t - t0 : end - t0])
            if end - base == chunk or end == self.window.n_steps:
                self.reducer.reduce_chunk(end - base)
            t = end
        self.cursor = t1

    def result(self) -> SimulationResult:
        """Package the run's loads and accounting."""
        window = self.window
        return SimulationResult(
            start=window.start,
            step_seconds=window.step_seconds,
            cluster_labels=window.problem.deployment.labels,
            capacities=window.accounting_capacities.copy(),
            server_counts=window.server_counts.copy(),
            loads=self.loads,
            paid_prices=window.paid_prices.copy(),
            distance_histogram=self.reducer.histogram(window.bin_index, window.n_bins),
        )


def simulate(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
    router_prices: np.ndarray | None = None,
) -> SimulationResult:
    """Run one routing policy over a trace and price data set.

    One run fed chunk by chunk: each chunk's rows go through
    :func:`_route` (on a thread pool when ``REPRO_ENGINE_THREADS`` asks
    for one) and fold in chunk order. Results are identical, step for
    step, to :func:`simulate_per_step`, to the stacked multi-replica
    pass (:func:`simulate_many`), and to an incremental
    :class:`~repro.sim.session.RoutingSession` fed the same demand rows.

    Parameters
    ----------
    trace:
        Per-state demand. Its state columns must match the routing
        problem's state order.
    dataset:
        Market prices; every cluster's hub must be present.
    problem:
        Deployment + distances shared across routers.
    router:
        The allocation policy under test.
    options:
        Simulation controls; defaults reproduce §6.1 (one-hour
        reaction delay, capacity respected, 95/5 relaxed).
    server_counts:
        Energy-accounting server counts per cluster; defaults to the
        deployment's. The static-placement experiments pass the whole
        fleet concentrated at one site.
    router_prices:
        Optional ``(n_steps, n_clusters)`` matrix the router sees in
        place of the lagged market prices — §8's pluggable cost
        functions (carbon intensity, cooling-adjusted prices). Rows
        are indexed by step, so routing stays correct however the
        engine batches or reorders work; billing always uses the real
        market prices, and ``reaction_delay_hours`` does not apply to
        an override (lag it yourself if the signal calls for it).
    """
    with profiling.phase("precompute"):
        window = _trace_window(trace, dataset, problem, options, server_counts, router_prices)
    run = _Run(window)
    chunk_steps = batch_chunk_steps(problem.n_states, problem.n_clusters)
    bounds = [
        (lo, min(lo + chunk_steps, trace.n_steps)) for lo in range(0, trace.n_steps, chunk_steps)
    ]

    def route_chunk(lo: int, hi: int) -> np.ndarray:
        with profiling.phase("routing"):
            return _route(router, window, trace.demand[lo:hi], window.prices[lo:hi])

    def fold(allocations: np.ndarray) -> None:
        with profiling.phase("reduce"):
            run.fold(allocations)

    n_threads = kernels.engine_threads()
    if n_threads > 1 and len(bounds) > 1:
        # Chunk routing is embarrassingly parallel (steps never
        # interact); the folds stay serial and in chunk order, so the
        # float summation order — part of the bit-identity contract —
        # is untouched. In-flight futures are bounded so peak memory
        # stays at ~n_threads chunk tensors.
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            pending = deque(pool.submit(route_chunk, *b) for b in bounds[:n_threads])
            for b in bounds[n_threads:]:
                fold(pending.popleft().result())
                pending.append(pool.submit(route_chunk, *b))
            while pending:
                fold(pending.popleft().result())
    else:
        for lo, hi in bounds:
            fold(route_chunk(lo, hi))

    with profiling.phase("finalize"):
        return run.result()


def simulate_per_step(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
    router_prices: np.ndarray | None = None,
) -> SimulationResult:
    """Reference implementation: one ``allocate`` call per step.

    This is the original §6.1 loop, kept independent of :func:`_route`
    and :meth:`_Run.fold` as the ground truth for equivalence tests and
    as the baseline for the engine benchmark; every other path must
    agree with it on loads, costs, and distance histograms.
    """
    window = _trace_window(trace, dataset, problem, options, server_counts, router_prices)
    run = _Run(window)
    demand = trace.demand if problem.dtype == np.float64 else trace.demand.astype(problem.dtype)
    chunk_steps = batch_chunk_steps(problem.n_states, problem.n_clusters)
    for t in range(trace.n_steps):
        try:
            allocation = router.allocate(demand[t], window.prices[t], window.limits)
        except InfeasibleAllocationError:
            if window.caps is None:
                raise
            # Demand cannot fit under the 95/5 caps this step: burst.
            allocation = router.allocate(demand[t], window.prices[t], window.capacity_limits)
        step_loads = allocation.sum(axis=0)
        run.loads[t] = step_loads
        if run.tracker is not None:
            run.tracker.record(step_loads)
        offset = t % chunk_steps
        run.reducer.put(offset, allocation)
        if offset == chunk_steps - 1 or t == trace.n_steps - 1:
            run.reducer.reduce_chunk(offset + 1)
    return run.result()


def simulate_many(
    traces: Iterable[TrafficTrace],
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
) -> tuple[SimulationResult, ...]:
    """Run one routing policy over R replica traces in a single pass.

    The stacked multi-replica entry point for ensemble sweeps: all
    traces must share one market data set, one calendar window (same
    start, step count, and step size), and one state order — exactly
    the shape of a sweep's seeded traffic replicas. The pass prepares
    the window **once** (the replicas see the same lagged prices, pay
    the same market prices and share the 95/5 caps), opens one run per
    replica, and routes each chunk in **fused** calls that stack the
    chunk's rows of several replicas, up to the same
    :func:`batch_chunk_steps` budget a single-replica chunk obeys.

    Because a conformant ``allocate_batch`` computes each step
    independently (slice ``t`` equals the scalar ``allocate`` on step
    ``t`` — the contract the differential suites pin), fusing steps
    from different replicas into one call cannot change any step's
    allocation, and every returned result is bit-identical to a
    standalone ``simulate(trace_r, ...)`` call. Per-replica caps (e.g.
    each replica following its *own* baseline) need separate
    :func:`simulate` calls; ``router_prices`` overrides are per-trace by
    nature and likewise excluded.
    """
    traces = tuple(traces)
    if not traces:
        return ()
    first = traces[0]
    for tr in traces[1:]:
        if (
            tr.start != first.start
            or tr.n_steps != first.n_steps
            or tr.step_seconds != first.step_seconds
        ):
            raise ConfigurationError(
                "simulate_many traces must share start, length, and step size"
            )
        if tr.state_codes != first.state_codes:
            raise ConfigurationError("simulate_many traces must share state order")

    with profiling.phase("precompute"):
        window = _trace_window(first, dataset, problem, options, server_counts)
    runs = [_Run(window) for _ in traces]
    chunk_steps = batch_chunk_steps(problem.n_states, problem.n_clusters)
    for lo in range(0, first.n_steps, chunk_steps):
        hi = min(lo + chunk_steps, first.n_steps)
        rows = hi - lo
        per_call = max(1, chunk_steps // rows)
        for g in range(0, len(traces), per_call):
            group = range(g, min(g + per_call, len(traces)))
            with profiling.phase("routing"):
                allocations = _route(
                    router,
                    window,
                    np.concatenate([traces[r].demand[lo:hi] for r in group]),
                    np.concatenate([window.prices[lo:hi]] * len(group)),
                )
            with profiling.phase("reduce"):
                for i, r in enumerate(group):
                    runs[r].fold(allocations[i * rows : (i + 1) * rows])

    with profiling.phase("finalize"):
        return tuple(run.result() for run in runs)
