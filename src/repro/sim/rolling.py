"""Rolling horizons: chain billing-window sessions so serving never dies.

A :class:`~repro.sim.session.RoutingSession` declares its horizon up
front because 95/5 accounting and the finalisation contract are
defined over one billing window. A long-lived server, though, must
outlive any single window: :class:`RollingSession` chains consecutive
windows supplied by a *window provider* — a callable that materialises
the next :class:`RoutingSession` (prices and all) each time the
current one fills up — behind the same feeding interface, so the
serving layer keeps routing while billing windows roll over underneath
it.

The contract extends the session contract window by window: demand fed
through a roller is split at window boundaries (feeding ``[a, b]`` in
one call is bit-identical to ``feed([a]); feed([b])`` — the session
contract — so the split never changes an allocation), and each
completed window's :class:`~repro.sim.results.SimulationResult` is
**bit-identical** to an offline :func:`~repro.sim.engine.simulate` run
over a trace carrying that window's rows
(``tests/test_sim_rolling.py`` pins this differentially).

Windows must be contiguous on the wall clock and share the state
order, cluster roster, and step size — the roller validates each
window as the provider hands it over. Open one over a registered
scenario with :func:`repro.scenarios.open_rolling_session`, which
slices the scenario's step grid into consecutive windows for as long
as the scenario's price provider covers the calendar.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import datetime
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult
from repro.sim.session import RoutingSession, SessionExhaustedError, validate_demand
from repro.traffic.percentile import Bandwidth95Tracker

__all__ = ["RollingSession"]

#: A window provider: called with the next window index, returns the
#: materialised session for that window, or ``None`` when the source
#: (market calendar, tape, configured cap) has nothing further.
WindowProvider = Callable[[int], "RoutingSession | None"]


class RollingSession:
    """Consecutive billing-window sessions behind one feeding interface.

    Parameters
    ----------
    windows:
        The window provider. Called with ``0, 1, 2, ...`` in order,
        at most once per index; returning ``None`` marks the rolling
        horizon exhausted. Window 0 is fetched eagerly (the roller
        needs its state order and clock to exist).
    total_steps:
        The provider's total horizon in steps, when it is known up
        front (:func:`~repro.scenarios.open_rolling_session` always
        knows). ``None`` means open-ended/unknown:
        :attr:`steps_remaining` then reports ``None`` and exhaustion
        is only discovered when the provider runs dry.
    retain_windows:
        How many *completed* windows to keep materialised for
        :meth:`clock`/:meth:`paid_prices` lookups (their
        :class:`SimulationResult`, far smaller, is always retained —
        see :meth:`results`). ``None`` keeps every window; a bounded
        value keeps a truly long-lived server's memory flat.
    resume_results:
        Banked per-window :class:`SimulationResult`\\ s from a prior
        run of the *same* chain, in window order. The roller resumes
        at the first un-banked window boundary: the provider is first
        called with ``len(resume_results)``, global step indices
        continue where the banked windows left off, and the resumed
        windows' results are folded into :meth:`results` — so a
        checkpoint-restart serves allocations bit-identical to a run
        that was never interrupted (each window is deterministic given
        its demand, and demand past the last banked boundary is
        re-fed live).
    """

    def __init__(
        self,
        windows: WindowProvider,
        *,
        total_steps: int | None = None,
        retain_windows: int | None = None,
        resume_results: Sequence[SimulationResult] = (),
    ) -> None:
        if total_steps is not None and total_steps < 1:
            raise ConfigurationError("total_steps must be positive when declared")
        if retain_windows is not None and retain_windows < 0:
            raise ConfigurationError("retain_windows must be non-negative")
        self._provider = windows
        self._total_steps = total_steps
        self._retain = retain_windows
        #: Windows (and steps) completed before this process started —
        #: the checkpoint the chain resumes from.
        self._window_offset = len(resume_results)
        self._step_offset = sum(r.loads.shape[0] for r in resume_results)
        if self._total_steps is not None and self._step_offset >= self._total_steps:
            raise ConfigurationError(
                f"cannot resume past the declared horizon: {self._step_offset} banked "
                f"step(s) vs {self._total_steps} total"
            )
        self._sessions: list[RoutingSession | None] = []
        self._origins: list[int] = []  # global start step of each fetched window
        self._lengths: list[int] = []
        self._results: list[SimulationResult] = list(resume_results)
        self._active = 0  # index of the first unexhausted fetched window
        self._fed = self._step_offset
        self._dry = False
        if self._fetch_next() is None:
            raise ConfigurationError("rolling session provider yielded no first window")
        first = self._sessions[0]
        assert first is not None
        self._state_codes = first.state_codes
        self._cluster_labels = first.cluster_labels
        self._step_seconds = first.step_seconds

    @classmethod
    def from_sessions(
        cls,
        sessions: Iterable[RoutingSession],
        *,
        retain_windows: int | None = None,
    ) -> "RollingSession":
        """A roller over a pre-built finite sequence of windows."""
        windows = tuple(sessions)
        total = sum(w.n_steps for w in windows) if windows else None

        def provider(index: int) -> RoutingSession | None:
            return windows[index] if index < len(windows) else None

        return cls(provider, total_steps=total, retain_windows=retain_windows)

    # -- window management -----------------------------------------------------

    def _fetch_next(self) -> RoutingSession | None:
        """Pull one more window from the provider, validating the chain."""
        if self._dry:
            return None
        index = self._window_offset + len(self._sessions)
        session = self._provider(index)
        if session is None:
            self._dry = True
            return None
        if session.steps_fed:
            raise ConfigurationError(
                f"rolling window {index} arrived with {session.steps_fed} steps already fed"
            )
        if self._origins:
            if session.state_codes != self._state_codes:
                raise ConfigurationError(f"rolling window {index} changed the state order")
            if session.cluster_labels != self._cluster_labels:
                raise ConfigurationError(f"rolling window {index} changed the cluster roster")
            if session.step_seconds != self._step_seconds:
                raise ConfigurationError(
                    f"rolling window {index} changed the step size "
                    f"({session.step_seconds}s vs {self._step_seconds}s)"
                )
            expected = self.clock(self._origins[-1] + self._lengths[-1])
            if session.clock(0) != expected:
                raise ConfigurationError(
                    f"rolling window {index} is not contiguous: starts {session.clock(0)}, "
                    f"previous window ends {expected}"
                )
        origin = (self._origins[-1] + self._lengths[-1]) if self._origins else self._step_offset
        self._sessions.append(session)
        self._origins.append(origin)
        self._lengths.append(session.n_steps)
        return session

    def _complete(self, index: int) -> None:
        """Bank a just-exhausted window's result; evict old sessions."""
        session = self._sessions[index]
        assert session is not None and session.exhausted
        self._results.append(session.result())
        self._active = index + 1
        if self._retain is not None:
            for i in range(max(0, index - self._retain + 1)):
                self._sessions[i] = None

    # -- introspection ---------------------------------------------------------

    @property
    def state_codes(self) -> tuple[str, ...]:
        """Column order :meth:`feed` expects demand in."""
        return self._state_codes

    @property
    def cluster_labels(self) -> tuple[str, ...]:
        return self._cluster_labels

    @property
    def step_seconds(self) -> int:
        """Seconds per step, shared by every window on the chain."""
        return self._step_seconds

    @property
    def n_steps(self) -> int | None:
        """The total rolling horizon, or ``None`` when open-ended."""
        return self._total_steps

    @property
    def steps_fed(self) -> int:
        """How many steps have been routed, across all windows."""
        return self._fed

    @property
    def steps_remaining(self) -> int | None:
        """Steps left on the whole chain; ``None`` when unknown.

        Once the provider has run dry this is exact even for an
        undeclared horizon (what is left in the fetched windows).
        """
        if self._total_steps is not None:
            return self._total_steps - self._fed
        if self._dry:
            return self._step_offset + sum(self._lengths) - self._fed
        return None

    @property
    def exhausted(self) -> bool:
        """True once no further step can ever be routed."""
        remaining = self.steps_remaining
        return remaining is not None and remaining <= 0

    @property
    def window_index(self) -> int:
        """Index of the window the next step lands in (chain-absolute)."""
        return self._window_offset + self._active

    @property
    def windows_completed(self) -> int:
        """Completed windows, including any the chain resumed with."""
        return len(self._results)

    def checkpoint_state(self) -> dict:
        """Where a restart can resume from: the last banked boundary.

        Steps fed past that boundary (the partially-filled active
        window) are *not* recoverable — a resumed chain re-serves them
        live, which the per-window determinism makes bit-identical.
        """
        return {
            "windows_completed": len(self._results),
            "steps_banked": self._step_offset + sum(self._lengths[: self._active]),
        }

    @property
    def tracker(self) -> Bandwidth95Tracker | None:
        """The *current* window's rolling 95/5 tracker (if any)."""
        if self._active < len(self._sessions):
            session = self._sessions[self._active]
            return session.tracker if session is not None else None
        return None

    def results(self) -> tuple[SimulationResult, ...]:
        """Completed windows' results, in window order.

        Each is bit-identical to an offline
        :func:`~repro.sim.engine.simulate` run over that window's rows.
        """
        return tuple(self._results)

    def _locate(self, step: int, *, end_inclusive: bool) -> tuple[RoutingSession, int]:
        """Map a global step to its (materialised) window and local index."""
        t = int(step)
        total = self._step_offset + sum(self._lengths)
        end = total if end_inclusive else total - 1
        if not self._step_offset <= t <= end:
            raise ConfigurationError(
                f"step {step} is outside the materialised rolling horizon "
                f"[{self._step_offset}, {end}]"
            )
        index = min(bisect_right(self._origins, t) - 1, len(self._sessions) - 1)
        session = self._sessions[index]
        if session is None:
            raise ConfigurationError(
                f"step {step} falls in window {index}, which retain_windows has evicted"
            )
        return session, t - self._origins[index]

    def clock(self, step: int | None = None) -> datetime:
        """Wall-clock start of global ``step`` (default: next unfed)."""
        t = self._fed if step is None else step
        session, local = self._locate(t, end_inclusive=True)
        return session.clock(local)

    def seen_prices(self, step: int) -> np.ndarray:
        """The (lagged) per-cluster prices the router sees at ``step``."""
        session, local = self._locate(step, end_inclusive=False)
        return session.seen_prices(local)

    def paid_prices(self, step: int) -> np.ndarray:
        """The per-cluster market prices billed at ``step``."""
        session, local = self._locate(step, end_inclusive=False)
        return session.paid_prices(local)

    # -- feeding ---------------------------------------------------------------

    def step(self, demand: np.ndarray) -> np.ndarray:
        """Route one step of demand; returns its allocation matrix."""
        return self.feed([demand])[0]

    def feed(self, demand: np.ndarray) -> np.ndarray:
        """Route ``k`` consecutive steps, rolling windows as needed.

        The batch is split at window boundaries (bit-identical to
        feeding the pieces separately, per the session contract); every
        window the batch needs is fetched from the provider *before*
        any row is routed, so a batch that cannot complete consumes
        nothing.

        Raises
        ------
        ConfigurationError
            If the demand fails :func:`~repro.sim.session.validate_demand`.
        SessionExhaustedError
            If the provider cannot supply enough window capacity.
        """
        rows = validate_demand(demand, len(self._state_codes))
        k = rows.shape[0]

        capacity = sum(
            s.steps_remaining for s in self._sessions[self._active :] if s is not None
        )
        while capacity < k:
            fetched = self._fetch_next()
            if fetched is None:
                raise SessionExhaustedError(
                    f"feeding {k} step(s) exceeds the remaining rolling horizon "
                    f"({capacity} step(s) left)"
                )
            capacity += fetched.n_steps

        parts: list[np.ndarray] = []
        i = 0
        while i < k:
            index = self._active
            session = self._sessions[index]
            assert session is not None
            span = min(k - i, session.steps_remaining)
            parts.append(session.feed(rows[i : i + span]))
            if session.exhausted:
                self._complete(index)
            i += span
        self._fed += k
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def windows(self) -> Iterator[tuple[int, int]]:
        """(global start step, length) of every window fetched so far."""
        return iter(zip(self._origins, self._lengths))
