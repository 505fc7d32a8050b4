"""Incremental engine mode: one allocation per arriving step.

The offline pipelines (:func:`repro.sim.simulate` and friends) replay
a complete :class:`~repro.traffic.trace.TrafficTrace`; a
:class:`RoutingSession` is a cursor around the same engine core for the
online serving path. Opening a session prepares the engine's shared
window over the declared horizon — prices for every step are
materialised up front from any
:class:`~repro.markets.providers.PriceProvider`-backed dataset, since
prices never depend on demand — and opens one run over it. Demand then
arrives *step by step* (or in micro-batches): each :meth:`feed` call
checks the rows with :func:`validate_demand`, routes them through the
engine's ``_route`` and folds them into the run.

Because a session runs the very precompute, routing and fold that
:func:`~repro.sim.simulate` runs, feeding a demand sequence through it
is **bit-identical** to the offline run over a trace with the same
rows, in any micro-batching: the same allocations, the same rolling
:class:`~repro.traffic.percentile.Bandwidth95Tracker` accounting, and,
once the horizon completes, a :meth:`result` whose loads, paid prices
and distance histogram match bit for bit (pinned by
``tests/test_sim_session.py``).

Sessions are the substrate of :mod:`repro.serve`'s micro-batching
server; open one from a registered scenario with
:func:`repro.scenarios.open_session`.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from repro.errors import ConfigurationError
from repro.markets.generator import MarketDataset
from repro.routing.base import Router, RoutingProblem
from repro.sim.engine import SimulationOptions, _prepare, _route, _Run
from repro.sim.results import SimulationResult
from repro.traffic.percentile import Bandwidth95Tracker

__all__ = ["RoutingSession", "SessionExhaustedError", "validate_demand"]

_NUMBER_TYPES = (int, float, np.integer, np.floating)


class SessionExhaustedError(ConfigurationError):
    """Raised when demand is fed past the session's declared horizon."""


def _is_number(value: object) -> bool:
    return isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool)


def _holds_numbers(value: object) -> bool:
    """A number, a numeric array, or a list or tuple of numbers."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(map(_is_number, value))
    return _is_number(value)


def validate_demand(demand: object, n_states: int) -> np.ndarray:
    """The one check all demand passes before it is routed.

    Accepts a numeric array, or a list or tuple of numbers or of rows
    of numbers, shaped ``(n_states,)`` (promoted to one row) or
    ``(k, n_states)`` with ``k >= 1``; every value must be finite and
    non-negative. Bools, strings, ``None`` and other objects are not
    numbers, even where numpy would coerce them, and ragged or deeper
    nesting is not a matrix. Returns the rows as float64.

    Raises
    ------
    ConfigurationError
        For anything else; nothing has been routed.
    """
    if isinstance(demand, np.ndarray):
        if demand.dtype.kind not in "iuf":
            raise ConfigurationError(f"demand must be numeric, got dtype {demand.dtype}")
        rows = demand.astype(float, copy=False)
    elif isinstance(demand, (list, tuple)) and all(map(_holds_numbers, demand)):
        try:
            rows = np.array(demand, dtype=float)
        except (ValueError, OverflowError) as exc:  # ragged, or an int past float range
            raise ConfigurationError(f"demand must be a matrix of finite numbers: {exc}") from exc
    else:
        raise ConfigurationError(
            "demand must be a list or array of numbers (not bool, string or object values)"
        )
    shape = rows.shape
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != n_states:
        raise ConfigurationError(
            f"demand must be ({n_states},) or (k, {n_states}), got shape {shape}"
        )
    if rows.shape[0] == 0:
        raise ConfigurationError("feed needs at least one step of demand")
    if np.any(rows < 0) or not np.all(np.isfinite(rows)):
        raise ConfigurationError("demand must be finite and non-negative")
    return rows


class RoutingSession:
    """Rolling engine state that routes demand one step at a time.

    Parameters
    ----------
    dataset:
        Market prices; every cluster's hub must be present. Typically
        materialised by a :class:`~repro.markets.providers.PriceProvider`.
    problem:
        Deployment + distances shared across routers (and the engine
        dtype the session runs under).
    router:
        The allocation policy serving this session.
    options:
        Engine controls, exactly as for :func:`~repro.sim.simulate`:
        reaction delay, capacity margin, optional 95/5
        ``bandwidth_caps`` (the session then holds a rolling
        :class:`~repro.traffic.percentile.Bandwidth95Tracker`).
    start / step_seconds / n_steps:
        The step grid: wall-clock start of step 0, seconds per step,
        and the session horizon. The horizon is declared up front
        because 95/5 accounting (the free-interval budget) and the
        finalisation contract are defined over a billing window, not
        an open-ended stream; it must fit the dataset's calendar.
    server_counts:
        Energy-accounting server counts per cluster (see
        :func:`~repro.sim.simulate`); checked here, not at the end.
    """

    def __init__(
        self,
        dataset: MarketDataset,
        problem: RoutingProblem,
        router: Router,
        options: SimulationOptions | None = None,
        *,
        start: datetime,
        step_seconds: int,
        n_steps: int,
        server_counts: np.ndarray | None = None,
    ) -> None:
        if n_steps < 1:
            raise ConfigurationError("session horizon must be at least one step")
        if step_seconds < 1:
            raise ConfigurationError("step_seconds must be positive")
        self._window = _prepare(
            dataset,
            problem,
            options or SimulationOptions(),
            start,
            step_seconds,
            n_steps,
            server_counts,
        )
        self._router = router
        self._run = _Run(self._window)
        self._result: SimulationResult | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def n_steps(self) -> int:
        """The declared horizon, in steps."""
        return self._window.n_steps

    @property
    def step_seconds(self) -> int:
        """Seconds per step on the session's grid."""
        return self._window.step_seconds

    @property
    def steps_fed(self) -> int:
        """How many steps have been routed so far."""
        return self._run.cursor

    @property
    def steps_remaining(self) -> int:
        """Horizon steps not yet fed."""
        return self.n_steps - self._run.cursor

    @property
    def exhausted(self) -> bool:
        """True once the whole horizon has been routed."""
        return self._run.cursor >= self.n_steps

    @property
    def cluster_labels(self) -> tuple[str, ...]:
        return self._window.problem.deployment.labels

    @property
    def state_codes(self) -> tuple[str, ...]:
        """Column order :meth:`feed` expects demand in."""
        return self._window.problem.state_codes

    @property
    def tracker(self) -> Bandwidth95Tracker | None:
        """The rolling 95/5 tracker (None when the run is unconstrained)."""
        return self._run.tracker

    def _check_step(self, step: int, *, end: int) -> int:
        """Validate a step index against the horizon (``[0, end]``)."""
        t = int(step)
        if not 0 <= t <= end:
            raise ConfigurationError(
                f"step {step} is outside the session horizon [0, {end}]"
            )
        return t

    def clock(self, step: int | None = None) -> datetime:
        """Wall-clock start of ``step`` (default: the next unfed step).

        ``step == n_steps`` is allowed — it is the end boundary of the
        horizon (the start of the next billing window).
        """
        t = self._run.cursor if step is None else self._check_step(step, end=self.n_steps)
        return self._window.start + timedelta(seconds=t * self.step_seconds)

    def seen_prices(self, step: int) -> np.ndarray:
        """The (lagged) per-cluster prices the router sees at ``step``."""
        return self._window.seen_prices[self._check_step(step, end=self.n_steps - 1)].copy()

    def paid_prices(self, step: int) -> np.ndarray:
        """The per-cluster market prices billed at ``step``."""
        return self._window.paid_prices[self._check_step(step, end=self.n_steps - 1)].copy()

    # -- feeding ---------------------------------------------------------------

    def step(self, demand: np.ndarray) -> np.ndarray:
        """Route one step of demand; returns its allocation matrix.

        The ``(n_states, n_clusters)`` return equals what the offline
        engine would have allocated at this position in the horizon.
        """
        return self.feed([demand])[0]

    def feed(self, demand: np.ndarray) -> np.ndarray:
        """Route a micro-batch of ``k`` consecutive steps.

        ``demand`` is ``(k, n_states)`` (a single ``(n_states,)`` row
        is promoted; see :func:`validate_demand`); the return is the
        ``(k, n_states, n_clusters)`` allocation tensor. Feeding
        ``[a, b]`` in one call is bit-identical to ``feed([a]);
        feed([b])`` — micro-batching is a throughput decision, never a
        semantic one — which is what lets the serving layer coalesce
        concurrent requests freely. A batch that raises consumes no
        step.

        Raises
        ------
        ConfigurationError
            If the demand fails :func:`validate_demand`.
        SessionExhaustedError
            If the batch would run past the declared horizon.
        InfeasibleAllocationError
            If a step's demand cannot be placed even against plain
            capacity (or, unconstrained, at all).
        """
        rows = validate_demand(demand, len(self.state_codes))
        t0, k = self._run.cursor, rows.shape[0]
        if t0 + k > self.n_steps:
            raise SessionExhaustedError(
                f"feeding {k} step(s) at step {t0} exceeds the session horizon "
                f"({self.n_steps} steps)"
            )
        allocations = _route(self._router, self._window, rows, self._window.prices[t0 : t0 + k])
        self._run.fold(allocations)
        return allocations

    # -- finalisation ----------------------------------------------------------

    def result(self) -> SimulationResult:
        """The completed run's :class:`SimulationResult`.

        Only available once the whole horizon has been fed; the result
        is bit-identical to :func:`~repro.sim.simulate` over a trace
        carrying the same demand rows.
        """
        if not self.exhausted:
            raise ConfigurationError(
                f"session has routed {self._run.cursor}/{self.n_steps} steps; "
                "the result is defined over the full horizon"
            )
        if self._result is None:
            self._result = self._run.result()
        return self._result
