"""Tests for repro.sim.engine."""

from datetime import datetime

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing import BaselineProximityRouter, PriceConsciousRouter
from repro.sim import SimulationOptions, simulate, simulate_per_step
from repro.traffic.synthetic import TraceConfig, make_trace


class TestOptions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationOptions(reaction_delay_hours=-1)
        with pytest.raises(ConfigurationError):
            SimulationOptions(capacity_margin=0.0)

    def test_bandwidth_caps_normalised_to_readonly_float(self):
        opts = SimulationOptions(bandwidth_caps=[100, 200, 300])
        assert isinstance(opts.bandwidth_caps, np.ndarray)
        assert opts.bandwidth_caps.dtype == np.float64
        assert not opts.bandwidth_caps.flags.writeable

    def test_bandwidth_caps_must_be_1d(self):
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.ones((3, 2)))
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.array(5.0))

    def test_bandwidth_caps_must_be_finite_non_negative(self):
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.array([1.0, -2.0]))
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.array([1.0, np.nan]))
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.array([1.0, np.inf]))

    def test_bandwidth_caps_must_be_numeric(self):
        with pytest.raises(ConfigurationError):
            SimulationOptions(bandwidth_caps=np.array(["a", "b"]))

    def test_bandwidth_caps_wrong_length_rejected_by_engine(
        self,
        short_trace,
        small_dataset,
        problem,
    ):
        options = SimulationOptions(bandwidth_caps=np.ones(3))
        with pytest.raises(ConfigurationError, match="one entry per cluster"):
            simulate(
                short_trace,
                small_dataset,
                problem,
                BaselineProximityRouter(problem),
                options,
            )


class TestSimulate:
    def test_result_shape(self, short_trace, small_dataset, problem):
        result = simulate(short_trace, small_dataset, problem, BaselineProximityRouter(problem))
        assert result.loads.shape == (short_trace.n_steps, 9)
        assert result.paid_prices.shape == result.loads.shape
        assert result.n_clusters == 9
        assert result.step_seconds == 300

    def test_all_demand_served(self, short_trace, small_dataset, problem):
        result = simulate(short_trace, small_dataset, problem, BaselineProximityRouter(problem))
        assert np.allclose(result.loads.sum(axis=1), short_trace.total_us())

    def test_capacity_respected(self, short_trace, small_dataset, problem):
        options = SimulationOptions(capacity_margin=0.9)
        result = simulate(
            short_trace,
            small_dataset,
            problem,
            BaselineProximityRouter(problem),
            options,
        )
        caps = problem.deployment.capacities
        assert np.all(result.loads <= caps * 0.9 + 1e-6)

    def test_paid_prices_are_current_not_lagged(self, short_trace, small_dataset, problem):
        result = simulate(
            short_trace,
            small_dataset,
            problem,
            BaselineProximityRouter(problem),
            SimulationOptions(reaction_delay_hours=5),
        )
        hub_cols = [small_dataset.hub_column(c) for c in problem.deployment.hub_codes]
        start_hour = small_dataset.calendar.index_of(short_trace.start)
        expected_first = small_dataset.price_matrix[start_hour, hub_cols]
        assert np.allclose(result.paid_prices[0], expected_first)

    def test_delay_changes_priced_routing(self, short_trace, small_dataset, problem):
        router = PriceConsciousRouter(problem, 2500.0)
        immediate = simulate(
            short_trace,
            small_dataset,
            problem,
            router,
            SimulationOptions(reaction_delay_hours=0),
        )
        delayed = simulate(
            short_trace,
            small_dataset,
            problem,
            router,
            SimulationOptions(reaction_delay_hours=12),
        )
        assert not np.allclose(immediate.loads, delayed.loads)

    def test_trace_outside_calendar_rejected(self, small_dataset, problem):
        trace = make_trace(TraceConfig(start=datetime(2012, 1, 1), n_steps=10))
        with pytest.raises(ConfigurationError):
            simulate(trace, small_dataset, problem, BaselineProximityRouter(problem))

    def test_server_counts_override(self, short_trace, small_dataset, problem):
        counts = np.zeros(9)
        counts[0] = 14_000.0
        from repro.routing.static import StaticSingleHubRouter

        result = simulate(
            short_trace,
            small_dataset,
            problem,
            StaticSingleHubRouter(problem, 0),
            SimulationOptions(relax_capacity=True),
            server_counts=counts,
        )
        assert result.server_counts[0] == 14_000.0
        # Accounting capacity scaled to the relocated fleet: the site's
        # utilization stays sane rather than pegging at 1.
        assert result.capacities[0] > problem.deployment.capacities[0]
        assert result.utilization()[:, 0].max() < 1.0

    def test_bad_server_counts_shape(self, short_trace, small_dataset, problem):
        with pytest.raises(ConfigurationError):
            simulate(
                short_trace,
                small_dataset,
                problem,
                BaselineProximityRouter(problem),
                server_counts=np.ones(3),
            )

    def test_bad_server_counts_fail_before_any_routing(self, short_trace, small_dataset, problem):
        class Unreachable:
            def allocate(self, *args):
                pytest.fail("routed a trace whose server counts were already invalid")

            allocate_batch = allocate

        for run in (simulate, simulate_per_step):
            with pytest.raises(ConfigurationError, match="server_counts"):
                run(short_trace, small_dataset, problem, Unreachable(), server_counts=np.ones(3))


class TestBandwidthConstraints:
    def test_followed_caps_bind(self, trace24, small_dataset, problem, baseline24):
        caps = baseline24.percentiles_95()
        router = PriceConsciousRouter(problem, 2500.0)
        followed = simulate(
            trace24,
            small_dataset,
            problem,
            router,
            SimulationOptions(bandwidth_caps=caps),
        )
        relaxed = simulate(trace24, small_dataset, problem, router)
        # Caps must not raise the 95th percentile beyond the baseline's
        # (tiny numerical tolerance).
        assert np.all(followed.percentiles_95() <= caps * 1.02 + 1e-6)
        # And the constraint must actually change the allocation.
        assert not np.allclose(followed.loads, relaxed.loads)

    def test_followed_costs_at_least_relaxed(self, trace24, small_dataset, problem, baseline24):
        from repro.energy import OPTIMISTIC_FUTURE

        caps = baseline24.percentiles_95()
        router = PriceConsciousRouter(problem, 2500.0)
        followed = simulate(
            trace24,
            small_dataset,
            problem,
            router,
            SimulationOptions(bandwidth_caps=caps),
        )
        relaxed = simulate(trace24, small_dataset, problem, router)
        assert followed.total_cost(OPTIMISTIC_FUTURE) >= relaxed.total_cost(
            OPTIMISTIC_FUTURE
        ) * 0.999


class TestBatchedPipelineEquivalence:
    """The batched engine must reproduce the per-step reference loop."""

    def _assert_equivalent(self, batched, reference):
        np.testing.assert_allclose(batched.loads, reference.loads, atol=1e-9)
        np.testing.assert_allclose(batched.paid_prices, reference.paid_prices, atol=0.0)
        np.testing.assert_allclose(
            batched.distance_profile.histogram,
            reference.distance_profile.histogram,
            rtol=1e-12,
        )
        from repro.energy import OPTIMISTIC_FUTURE

        assert batched.total_cost(OPTIMISTIC_FUTURE) == pytest.approx(
            reference.total_cost(OPTIMISTIC_FUTURE),
            rel=1e-9,
        )

    def test_baseline_router(self, short_trace, small_dataset, problem):
        router = BaselineProximityRouter(problem)
        self._assert_equivalent(
            simulate(short_trace, small_dataset, problem, router),
            simulate_per_step(short_trace, small_dataset, problem, router),
        )

    def test_price_router_relaxed(self, short_trace, small_dataset, problem):
        router = PriceConsciousRouter(problem, 1500.0)
        self._assert_equivalent(
            simulate(short_trace, small_dataset, problem, router),
            simulate_per_step(short_trace, small_dataset, problem, router),
        )

    def test_price_router_followed_95_5(self, trace24, small_dataset, problem, baseline24):
        # Constrained steps exercise burst detection and the greedy
        # spill; this is the regime where per-step and batched paths
        # diverge if anything is off.
        options = SimulationOptions(bandwidth_caps=baseline24.percentiles_95())
        router = PriceConsciousRouter(problem, 1500.0)
        self._assert_equivalent(
            simulate(trace24, small_dataset, problem, router, options),
            simulate_per_step(trace24, small_dataset, problem, router, options),
        )

    def test_static_router_relaxed_capacity(self, short_trace, small_dataset, problem):
        from repro.routing.static import StaticSingleHubRouter

        router = StaticSingleHubRouter(problem, 1)
        options = SimulationOptions(relax_capacity=True)
        self._assert_equivalent(
            simulate(short_trace, small_dataset, problem, router, options),
            simulate_per_step(short_trace, small_dataset, problem, router, options),
        )

    def test_reaction_delay(self, short_trace, small_dataset, problem):
        router = PriceConsciousRouter(problem, 1500.0)
        options = SimulationOptions(reaction_delay_hours=6)
        self._assert_equivalent(
            simulate(short_trace, small_dataset, problem, router, options),
            simulate_per_step(short_trace, small_dataset, problem, router, options),
        )

    def test_router_prices_override_with_caps(self, trace24, small_dataset, problem, baseline24):
        # A §8 signal override under 95/5 caps: rows are step-indexed,
        # so burst reordering must not desynchronise routing, and the
        # batched/per-step paths must still agree exactly.
        from repro.ext import carbon_intensity_matrix, hourly_signal_rows

        rows = hourly_signal_rows(
            carbon_intensity_matrix(small_dataset),
            small_dataset,
            problem.deployment,
            trace24,
        )
        router = PriceConsciousRouter(problem, 1500.0)
        options = SimulationOptions(bandwidth_caps=baseline24.percentiles_95())
        batched = simulate(trace24, small_dataset, problem, router, options, router_prices=rows)
        reference = simulate_per_step(
            trace24,
            small_dataset,
            problem,
            router,
            options,
            router_prices=rows,
        )
        self._assert_equivalent(batched, reference)
        # And the signal actually changed the routing vs market prices.
        plain = simulate(trace24, small_dataset, problem, router, options)
        assert not np.allclose(batched.loads, plain.loads)

    def test_burst_retry_for_router_raising_on_cluster_overflow(
        self,
        short_trace,
        small_dataset,
        problem,
    ):
        # A scalar-only router that raises whenever its single target
        # cluster is over its limit — per-cluster infeasibility the
        # engine's total-demand burst predicate cannot anticipate.
        # The engine must keep the original contract: catch, retry
        # the step against plain capacity limits.
        from repro.errors import InfeasibleAllocationError

        class StrictSingleCluster:
            def __init__(self, prob, index):
                self._prob = prob
                self._index = index

            def allocate(self, demand, prices, limits):
                if demand.sum() > limits[self._index]:
                    raise InfeasibleAllocationError("target cluster full")
                out = np.zeros((self._prob.n_states, self._prob.n_clusters))
                out[:, self._index] = demand
                return out

        router = StrictSingleCluster(problem, 0)
        # Caps below the target cluster's demand force the raise while
        # national totals still fit under the summed caps.
        caps = np.full(9, short_trace.total_us().max())
        caps[0] = float(short_trace.total_us().min()) / 2.0
        options = SimulationOptions(bandwidth_caps=caps, relax_capacity=True)
        batched = simulate(short_trace, small_dataset, problem, router, options)
        reference = simulate_per_step(short_trace, small_dataset, problem, router, options)
        self._assert_equivalent(batched, reference)
        assert np.allclose(batched.loads[:, 0], short_trace.total_us())

    def test_router_prices_wrong_shape_rejected(self, short_trace, small_dataset, problem):
        router = PriceConsciousRouter(problem, 1500.0)
        with pytest.raises(ConfigurationError, match="router_prices"):
            simulate(
                short_trace,
                small_dataset,
                problem,
                router,
                router_prices=np.ones((3, 9)),
            )
