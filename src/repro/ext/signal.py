"""Routing on an arbitrary hourly signal instead of prices (§8).

"A socially responsible service operator may instead choose an
environmental impact cost function" — the optimizer's machinery is
signal-agnostic, so green routing is the price router fed a carbon
(or cooling-adjusted) matrix. :func:`hourly_signal_rows` aligns such
a matrix with a trace, producing the per-step ``(n_steps,
n_clusters)`` rows that :func:`repro.sim.simulate` accepts as its
``router_prices`` override::

    rows = hourly_signal_rows(
        carbon_intensity_matrix(dataset), dataset, deployment, trace
    )
    result = simulate(
        trace, dataset, problem,
        CarbonConsciousRouter(problem, 1500.0),
        router_prices=rows,
    )

Because the override is indexed by step, it works under any engine
batching or 95/5 burst reordering — there is no per-call state to
fall out of sync.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.markets.generator import MarketDataset
from repro.sim.engine import _hour_indices
from repro.traffic.clusters import ClusterDeployment
from repro.traffic.trace import TrafficTrace

__all__ = ["hourly_signal_rows"]


def hourly_signal_rows(
    signal: np.ndarray,
    dataset: MarketDataset,
    deployment: ClusterDeployment,
    trace: TrafficTrace,
) -> np.ndarray:
    """Per-step signal rows for a trace, in deployment cluster order.

    Parameters
    ----------
    signal:
        ``(n_hours, n_hubs)`` hourly signal aligned with ``dataset``'s
        calendar and hub order (e.g. the output of
        :func:`repro.ext.carbon.carbon_intensity_matrix` or
        :func:`repro.ext.weather.effective_price_matrix`).
    dataset / deployment / trace:
        Fix the calendar alignment, the hub-to-cluster mapping, and
        the step grid of the returned ``(n_steps, n_clusters)`` array.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 2 or signal.shape[0] != dataset.calendar.n_hours:
        raise ConfigurationError(
            "signal must be (n_hours, n_hubs) over the market calendar, "
            f"got shape {signal.shape}"
        )
    hub_cols = [dataset.hub_column(code) for code in deployment.hub_codes]
    hours = _hour_indices(trace.start, trace.step_seconds, trace.n_steps, dataset)
    return signal[hours][:, hub_cols]
