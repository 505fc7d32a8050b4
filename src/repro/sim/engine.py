"""The discrete-time routing simulator (§6.1).

"We constructed a simple discrete time simulator that stepped through
the Akamai usage statistics, letting a routing module (with a global
view of the network) allocate traffic to clusters at each time step.
Using these allocations, we modeled each cluster's energy consumption,
and used observed hourly market prices to calculate energy
expenditures."

The engine walks a :class:`~repro.traffic.trace.TrafficTrace` (hourly
or five-minute), hands the router the *lagged* prices (default one
hour — §6.1 assumes the system reacts to the previous hour's prices)
and the effective limits (cluster capacity, optionally the 95/5
ceilings), and records loads, paid prices, and the client-server
distance distribution into a :class:`~repro.sim.results.SimulationResult`.

Execution is a staged pipeline rather than a step loop:

1. *Precompute* — the seen/paid price tensors for every step, the
   effective limits, and the steps (if any) that must burst above the
   95/5 ceilings, are all derived up front with array ops.
2. *Batch allocate* — maximal runs of steps that share the same limits
   are handed to the router's vectorised ``allocate_batch`` through
   :func:`repro.routing.base.batch_allocate` (which falls back to
   sequential per-step calls for routers without a batch form). Runs
   are chunked to bound the peak size of the ``(T, n_states,
   n_clusters)`` allocation tensor.
3. *Reduce* — per-step loads, the 95/5 burst accounting, and the
   distance histogram are accumulated with array reductions instead of
   per-step ``bincount`` calls.

:func:`simulate_per_step` preserves the original one-``allocate``-call-
per-step loop as the reference implementation; the batched pipeline is
required (and tested) to reproduce it *bit for bit*. Both paths fold
per-step allocations through one shared chunked reducer
(:class:`_AllocationReducer`) so even the floating-point summation
order of the distance histogram is part of the contract.

:func:`simulate_many` stacks R replica traces that share one market
data set into a single batched pass: the price/limit precompute runs
once, routing calls fuse steps from every replica (the router contract
— slice ``t`` equals the scalar ``allocate`` on step ``t`` — makes
fused calls bit-identical to per-replica ones), and each replica's
allocations fold through its own reducer at the *same* chunk
boundaries :func:`simulate` would use, so every returned result is bit
for bit the one a standalone :func:`simulate` call produces.

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
    contract: both pipelines push every step's allocation through this
    reducer — a step-ordered chunk buffer reduced with ``sum(axis=0)``
    at chunk boundaries — which makes the distance histograms of
    :func:`simulate` and :func:`simulate_per_step` agree *bit for bit*,
    not merely to rounding tolerance.

    The chunk buffer holds allocations in the engine dtype (so a
    float32 run never materialises float64 copies of its chunks) while
    the running totals always accumulate in float64 —
    ``sum(axis=0, dtype=np.float64)`` is the identical operation on the
    default float64 path and the accuracy-preserving one on float32.
    """

    def __init__(
        self, n_steps: int, n_states: int, n_clusters: int, dtype: np.dtype | type = np.float64
    ) -> None:
        self._chunk = min(n_steps, batch_chunk_steps(n_states, n_clusters))
        self._buffer = np.zeros((self._chunk, n_states, n_clusters), dtype=dtype)
        self.total = np.zeros((n_states, n_clusters))

    def put(self, offsets: np.ndarray | int, allocations: np.ndarray) -> None:
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


def _burst_mask(limits: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Steps whose total demand cannot fit under the summed limits."""
    finite = np.isfinite(limits)
    total_limit = float(np.sum(limits[finite])) + (np.inf if np.any(~finite) else 0.0)
    return demand.sum(axis=1) > total_limit + 1e-6


def _hour_indices(trace: TrafficTrace, dataset: MarketDataset) -> np.ndarray:
    """Map every trace step to its hour index in the market calendar."""
    calendar = dataset.calendar
    offset_seconds = (trace.start - calendar.start).total_seconds()
    if offset_seconds < 0:
        raise ConfigurationError("trace starts before the market calendar")
    step_starts = offset_seconds + np.arange(trace.n_steps) * trace.step_seconds
    hours = (step_starts // SECONDS_PER_HOUR).astype(np.int64)
    if hours[-1] >= calendar.n_hours:
        raise ConfigurationError("trace extends past the market calendar")
    return hours


def _distance_bins(problem: RoutingProblem) -> tuple[np.ndarray, int]:
    """Flat (state, cluster) -> histogram-bin mapping for a problem."""
    distances = problem.distances.matrix
    bin_index = np.minimum(
        (distances / DISTANCE_BIN_KM).astype(np.int64),
        int(DISTANCE_MAX_KM / DISTANCE_BIN_KM) - 1,
    ).ravel()
    return bin_index, int(DISTANCE_MAX_KM / DISTANCE_BIN_KM)


@dataclass(frozen=True, slots=True)
class _PreparedRun:
    """Stage-1 output: everything derivable before any allocation."""

    seen_prices: np.ndarray
    paid_prices: np.ndarray
    capacity_limits: np.ndarray
    limits: np.ndarray
    tracker: Bandwidth95Tracker | None
    burst_steps: np.ndarray
    bin_index: np.ndarray
    n_bins: int


def _prepare(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    opts: SimulationOptions,
    router_prices: np.ndarray | None,
) -> _PreparedRun:
    """Precompute price tensors, effective limits, and burst steps."""
    deployment = problem.deployment

    if trace.state_codes != problem.state_codes:
        raise ConfigurationError("trace state order does not match routing problem")

    hour_idx = _hour_indices(trace, dataset)
    hub_columns = np.array([dataset.hub_column(code) for code in deployment.hub_codes])
    if router_prices is not None:
        seen_prices = np.asarray(router_prices, dtype=float)
        if seen_prices.shape != (trace.n_steps, deployment.n_clusters):
            raise ConfigurationError(
                "router_prices must be (n_steps, n_clusters), got "
                f"{seen_prices.shape}"
            )
    else:
        lagged = dataset.lagged_price_matrix(opts.reaction_delay_hours)
        seen_prices = lagged[hour_idx][:, hub_columns]
    paid_prices = dataset.price_matrix[hour_idx][:, hub_columns]

    if opts.relax_capacity:
        capacity_limits = np.full(deployment.n_clusters, np.inf)
    else:
        capacity_limits = deployment.capacities * opts.capacity_margin

    tracker: Bandwidth95Tracker | None = None
    limits = capacity_limits
    burst_steps = np.zeros(trace.n_steps, dtype=bool)
    if opts.bandwidth_caps is not None:
        if opts.bandwidth_caps.shape != (deployment.n_clusters,):
            raise ConfigurationError(
                "bandwidth caps must have one entry per cluster, got "
                f"{opts.bandwidth_caps.shape[0]} for {deployment.n_clusters} clusters"
            )
        tracker = Bandwidth95Tracker(opts.bandwidth_caps, trace.n_steps)
        limits = np.minimum(capacity_limits, tracker.limits())
        # Steps whose national demand cannot fit under the 95/5 caps
        # burst: the router is run against the plain capacity limits
        # instead (these are exactly the intervals where the baseline
        # itself exceeded its 95th percentile, so they fall in the
        # billing-free 5% — the tracker verifies). The predicate
        # mirrors greedy_fill's infeasibility test.
        burst_steps = _burst_mask(limits, trace.demand)

    bin_index, n_bins = _distance_bins(problem)

    return _PreparedRun(
        seen_prices=seen_prices,
        paid_prices=paid_prices,
        capacity_limits=capacity_limits,
        limits=limits,
        tracker=tracker,
        burst_steps=burst_steps,
        bin_index=bin_index,
        n_bins=n_bins,
    )


def _finalize(
    start,
    step_seconds: int,
    problem: RoutingProblem,
    paid_prices: np.ndarray,
    loads: np.ndarray,
    histogram: np.ndarray,
    server_counts: np.ndarray | None,
) -> SimulationResult:
    """Stage-3 output: package loads and accounting into a result.

    Shared by the offline pipelines and the incremental
    :class:`~repro.sim.session.RoutingSession`, so every path packages
    identical accounting from identical inputs.
    """
    deployment = problem.deployment
    capacities = deployment.capacities
    default_counts = np.array([c.n_servers for c in deployment.clusters], dtype=float)
    if server_counts is not None:
        counts = np.asarray(server_counts, dtype=float)
        if counts.shape != (deployment.n_clusters,):
            raise ConfigurationError("server_counts must have one entry per cluster")
        # Energy accounting must see the capacity the *relocated* fleet
        # provides at each site, or utilization (load / capacity) is
        # computed against the wrong machine count.
        hits_per_server = deployment.total_capacity / default_counts.sum()
        accounting_capacities = counts * hits_per_server
    else:
        counts = default_counts
        accounting_capacities = capacities.copy()

    return SimulationResult(
        start=start,
        step_seconds=step_seconds,
        cluster_labels=deployment.labels,
        capacities=accounting_capacities,
        server_counts=counts,
        loads=loads,
        paid_prices=paid_prices.copy(),
        distance_histogram=histogram,
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

    The batched pipeline: limits are constant over the whole run (the
    95/5 caps never move once derived), so after precomputing the
    price tensors the engine hands the router maximal runs of steps at
    once — chunked to bound memory — and reserves per-step work for
    the burst steps where demand exceeds the capped limits. Results
    are identical, step for step, to :func:`simulate_per_step`, to the
    stacked multi-replica pass (:func:`simulate_many`), and to an
    incremental :class:`~repro.sim.session.RoutingSession` fed the
    same demand rows.

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
    opts = options or SimulationOptions()
    with profiling.phase("precompute"):
        prepared = _prepare(trace, dataset, problem, opts, router_prices)
        route = _RouteArrays.build(problem, prepared, trace.demand)
    n_steps = trace.n_steps
    n_clusters = problem.n_clusters
    chunk_steps = batch_chunk_steps(problem.n_states, n_clusters)

    loads = np.empty((n_steps, n_clusters))
    reducer = _AllocationReducer(n_steps, problem.n_states, n_clusters, dtype=problem.dtype)

    strict_burst = _strict_burst(router, problem, prepared)

    def route_chunk(lo: int, hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Allocate one chunk's steps; returns (steps, allocations) runs."""
        segments = []
        chunk_burst = prepared.burst_steps[lo:hi]
        with profiling.phase("routing"):
            for selector, is_burst in ((~chunk_burst, False), (chunk_burst, True)):
                steps = lo + np.flatnonzero(selector)
                if steps.size == 0:
                    continue
                if is_burst:
                    if strict_burst:
                        # Burst steps under a strict router: raising on
                        # the capped limits is *guaranteed* (the burst
                        # predicate is the router's own infeasibility
                        # test), so the try/except replay collapses to
                        # one batched call against plain capacity.
                        allocations = batch_allocate(
                            router,
                            route.demand[steps],
                            route.prices[steps],
                            route.capacity_limits,
                        )
                    else:
                        # Steps whose total demand exceeds the summed
                        # 95/5 caps are replayed per step under the
                        # original contract, which any router semantics
                        # (raising, clipping, ignoring limits)
                        # reproduce exactly. They are at most the free
                        # 5% of intervals, so the batch path's
                        # throughput is untouched.
                        allocations = _replay_with_retry(router, route, steps)
                else:
                    try:
                        allocations = batch_allocate(
                            router,
                            route.demand[steps],
                            route.prices[steps],
                            route.limits,
                        )
                    except InfeasibleAllocationError:
                        if prepared.tracker is None:
                            raise
                        # The burst predicate only anticipates
                        # total-demand overflow; a router may still
                        # raise on per-cluster structure (e.g. a capped
                        # candidate set). Fall back to the per-step
                        # contract for these steps.
                        allocations = _replay_with_retry(router, route, steps)
                segments.append((steps, allocations))
        return segments

    def consume(lo: int, hi: int, segments: list[tuple[np.ndarray, np.ndarray]]) -> None:
        with profiling.phase("reduce"):
            for steps, allocations in segments:
                loads[steps] = allocations.sum(axis=1)
                reducer.put(steps - lo, allocations)
            reducer.reduce_chunk(hi - lo)

    bounds = [(lo, min(lo + chunk_steps, n_steps)) for lo in range(0, n_steps, chunk_steps)]
    n_threads = kernels.engine_threads()
    if n_threads > 1 and len(bounds) > 1:
        # Chunk routing is embarrassingly parallel (steps never
        # interact); the reduction below stays serial and in chunk
        # order, so the float summation order — part of the
        # bit-identity contract — is untouched. In-flight futures are
        # bounded so peak memory stays at ~n_threads chunk tensors.
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            pending = deque()
            it = iter(bounds)
            for b in bounds[:n_threads]:
                next(it)
                pending.append((b, pool.submit(route_chunk, *b)))
            while pending:
                (lo, hi), fut = pending.popleft()
                consume(lo, hi, fut.result())
                nxt = next(it, None)
                if nxt is not None:
                    pending.append((nxt, pool.submit(route_chunk, *nxt)))
    else:
        for lo, hi in bounds:
            consume(lo, hi, route_chunk(lo, hi))

    with profiling.phase("finalize"):
        if prepared.tracker is not None:
            prepared.tracker.record_batch(loads)
        histogram = reducer.histogram(prepared.bin_index, prepared.n_bins)
        return _finalize(
            trace.start,
            trace.step_seconds,
            problem,
            prepared.paid_prices,
            loads,
            histogram,
            server_counts,
        )


@dataclass(frozen=True, slots=True)
class _RouteArrays:
    """The arrays the router actually sees, in the engine dtype.

    On the default float64 path these are the prepared tensors
    themselves (no copies); a float32 problem casts demand, prices,
    and both limit vectors once up front so every routing call runs
    single-precision end to end. Billing (``paid_prices``), loads, and
    the reducer totals stay float64 either way.
    """

    demand: np.ndarray
    prices: np.ndarray
    limits: np.ndarray
    capacity_limits: np.ndarray

    @classmethod
    def build(
        cls, problem: RoutingProblem, prepared: _PreparedRun, demand: np.ndarray
    ) -> _RouteArrays:
        if problem.dtype == np.float64:
            return cls(demand, prepared.seen_prices, prepared.limits, prepared.capacity_limits)
        return cls(
            demand.astype(problem.dtype),
            prepared.seen_prices.astype(problem.dtype),
            prepared.limits.astype(problem.dtype),
            prepared.capacity_limits.astype(problem.dtype),
        )


def _strict_burst(router: Router, problem: RoutingProblem, prepared: _PreparedRun) -> bool:
    """Whether burst steps may be batched instead of replayed.

    Requires the router's ``strict_infeasibility`` promise *and* the
    float64 engine: the burst predicate is float-identical to
    greedy_fill's infeasibility test only when both run at the same
    precision as the precompute.
    """
    return (
        prepared.tracker is not None
        and problem.dtype == np.float64
        and bool(getattr(router, "strict_infeasibility", False))
    )


def _replay_with_retry(
    router: Router,
    route: _RouteArrays,
    steps: np.ndarray,
) -> np.ndarray:
    """Reference semantics, one step at a time: capped limits first,
    plain capacity when the router raises."""
    n_clusters = route.capacity_limits.shape[0]
    out = np.empty((steps.size, route.demand.shape[1], n_clusters), dtype=route.demand.dtype)
    for i, t in enumerate(steps):
        try:
            out[i] = router.allocate(route.demand[t], route.prices[t], route.limits)
        except InfeasibleAllocationError:
            out[i] = router.allocate(
                route.demand[t],
                route.prices[t],
                route.capacity_limits,
            )
    return out


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

    This is the original §6.1 loop the batched pipeline replaces. It
    is kept as the ground truth for equivalence tests and as the
    baseline for the engine benchmark; the two must agree on loads,
    costs, and distance histograms.
    """
    opts = options or SimulationOptions()
    prepared = _prepare(trace, dataset, problem, opts, router_prices)
    route = _RouteArrays.build(problem, prepared, trace.demand)
    n_clusters = problem.n_clusters
    chunk_steps = batch_chunk_steps(problem.n_states, n_clusters)

    reducer = _AllocationReducer(trace.n_steps, problem.n_states, n_clusters, dtype=problem.dtype)
    loads = np.empty((trace.n_steps, n_clusters))
    for t in range(trace.n_steps):
        try:
            allocation = router.allocate(route.demand[t], route.prices[t], route.limits)
        except InfeasibleAllocationError:
            if prepared.tracker is None:
                raise
            # Demand cannot fit under the 95/5 caps this step: burst.
            allocation = router.allocate(
                route.demand[t],
                route.prices[t],
                route.capacity_limits,
            )
        step_loads = allocation.sum(axis=0)
        loads[t] = step_loads
        if prepared.tracker is not None:
            prepared.tracker.record(step_loads)
        offset = t % chunk_steps
        reducer.put(offset, allocation)
        if offset == chunk_steps - 1 or t == trace.n_steps - 1:
            reducer.reduce_chunk(offset + 1)
    histogram = reducer.histogram(prepared.bin_index, prepared.n_bins)
    return _finalize(
        trace.start,
        trace.step_seconds,
        problem,
        prepared.paid_prices,
        loads,
        histogram,
        server_counts,
    )


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
    the shape of a sweep's seeded traffic replicas. The pass then

    * runs the price/limit precompute **once** (the replicas see the
      same lagged prices and pay the same market prices),
    * hands the router **fused** routing calls — steps from every
      replica stacked into one ``batch_allocate`` — whenever the fused
      tensor fits the same :func:`batch_chunk_steps` memory budget a
      single-replica chunk obeys, and
    * folds each replica's allocations through its own
      :class:`_AllocationReducer` at the same chunk boundaries
      :func:`simulate` uses.

    Because a conformant ``allocate_batch`` computes each step
    independently (slice ``t`` equals the scalar ``allocate`` on step
    ``t`` — the contract the differential suites pin), fusing steps
    from different replicas into one call cannot change any step's
    allocation, and every returned result is bit-identical to a
    standalone ``simulate(trace_r, ...)`` call.

    95/5 caps (``options.bandwidth_caps``) are shared across replicas
    — each replica gets its own :class:`Bandwidth95Tracker` and its
    own burst-step accounting against the shared ceilings. Per-replica
    caps (e.g. each replica following its *own* baseline) need
    separate :func:`simulate` calls. ``router_prices`` overrides are
    per-trace by nature and likewise excluded.
    """
    traces = tuple(traces)
    if not traces:
        return ()
    opts = options or SimulationOptions()
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
        prepared = _prepare(first, dataset, problem, opts, None)
        routes = [_RouteArrays.build(problem, prepared, tr.demand) for tr in traces]
    n_replicas = len(traces)
    n_steps = first.n_steps
    n_states = problem.n_states
    n_clusters = problem.n_clusters
    chunk_steps = batch_chunk_steps(n_states, n_clusters)
    strict_burst = _strict_burst(router, problem, prepared)

    # Burst accounting is demand-driven, so it is per replica even
    # though the caps (and the derived limits) are shared.
    if prepared.tracker is not None:
        trackers = [Bandwidth95Tracker(opts.bandwidth_caps, n_steps) for _ in range(n_replicas)]
        bursts = [_burst_mask(prepared.limits, tr.demand) for tr in traces]
    else:
        trackers = [None] * n_replicas
        bursts = [prepared.burst_steps] * n_replicas  # all-False, shared

    loads = [np.empty((n_steps, n_clusters)) for _ in range(n_replicas)]
    reducers = [
        _AllocationReducer(n_steps, n_states, n_clusters, dtype=problem.dtype)
        for _ in range(n_replicas)
    ]

    def _fast_segment(r: int, steps: np.ndarray) -> np.ndarray:
        """One replica's non-burst steps under simulate's semantics."""
        try:
            return batch_allocate(
                router,
                routes[r].demand[steps],
                routes[r].prices[steps],
                routes[r].limits,
            )
        except InfeasibleAllocationError:
            if trackers[r] is None:
                raise
            return _replay_with_retry(router, routes[r], steps)

    for lo in range(0, n_steps, chunk_steps):
        hi = min(lo + chunk_steps, n_steps)
        segments = []  # (replica, non-burst steps) pairs for this chunk
        for r in range(n_replicas):
            steps = lo + np.flatnonzero(~bursts[r][lo:hi])
            if steps.size:
                segments.append((r, steps))

        # Fuse consecutive segments into single routing calls, capped
        # at the same per-call row budget a single-replica chunk has.
        # Splitting or fusing calls never changes a step's allocation
        # (steps are independent), so the grouping is free to chase
        # throughput: short traces fuse all replicas into one call,
        # chunk-length traces keep the single-replica call size.
        group: list[tuple[int, np.ndarray]] = []
        group_rows = 0
        pending = segments + [None]  # sentinel flushes the last group
        for item in pending:
            if item is not None and (not group or group_rows + item[1].size <= chunk_steps):
                group.append(item)
                group_rows += item[1].size
                continue
            if group:
                with profiling.phase("routing"):
                    try:
                        fused = batch_allocate(
                            router,
                            np.concatenate([routes[r].demand[steps] for r, steps in group]),
                            np.concatenate([routes[0].prices[steps] for _, steps in group]),
                            routes[0].limits,
                        )
                    except InfeasibleAllocationError:
                        fused = None  # re-run the group per replica below
                    if fused is None:
                        parts = [_fast_segment(r, steps) for r, steps in group]
                with profiling.phase("reduce"):
                    offset = 0
                    for g, (r, steps) in enumerate(group):
                        if fused is None:
                            allocations = parts[g]
                        else:
                            allocations = fused[offset : offset + steps.size]
                        offset += steps.size
                        loads[r][steps] = allocations.sum(axis=1)
                        reducers[r].put(steps - lo, allocations)
            group = [item] if item is not None else []
            group_rows = item[1].size if item is not None else 0

        for r in range(n_replicas):
            burst_steps = lo + np.flatnonzero(bursts[r][lo:hi])
            if burst_steps.size:
                with profiling.phase("routing"):
                    if strict_burst:
                        allocations = batch_allocate(
                            router,
                            routes[r].demand[burst_steps],
                            routes[r].prices[burst_steps],
                            routes[r].capacity_limits,
                        )
                    else:
                        allocations = _replay_with_retry(router, routes[r], burst_steps)
                loads[r][burst_steps] = allocations.sum(axis=1)
                reducers[r].put(burst_steps - lo, allocations)
            with profiling.phase("reduce"):
                reducers[r].reduce_chunk(hi - lo)

    with profiling.phase("finalize"):
        results = []
        for r in range(n_replicas):
            if trackers[r] is not None:
                trackers[r].record_batch(loads[r])
            histogram = reducers[r].histogram(prepared.bin_index, prepared.n_bins)
            results.append(
                _finalize(
                    traces[r].start,
                    traces[r].step_seconds,
                    problem,
                    prepared.paid_prices,
                    loads[r],
                    histogram,
                    server_counts,
                )
            )
        return tuple(results)
