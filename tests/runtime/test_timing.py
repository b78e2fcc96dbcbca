"""Unit tests for the simulated-time accounting."""

import pytest

from repro.network.cost_model import CostModel, NetworkParameters
from repro.network.stats import RoundTraffic
from repro.runtime.timing import (
    ComputeCostParameters,
    WorkStats,
    round_communication_time,
)


class TestWorkStats:
    def test_merge(self):
        merged = WorkStats(10, 2, 1).merge(WorkStats(5, 3, 1))
        assert merged.edges_processed == 15
        assert merged.nodes_processed == 5
        assert merged.inner_steps == 2

    def test_defaults(self):
        work = WorkStats()
        assert work.edges_processed == 0
        assert work.inner_steps == 1


class TestComputeCost:
    def test_linear_composition(self):
        cost = ComputeCostParameters(
            per_edge_s=2.0, per_node_s=3.0, step_overhead_s=10.0
        )
        assert cost.compute_time(WorkStats(4, 5, 2)) == pytest.approx(
            4 * 2.0 + 5 * 3.0 + 2 * 10.0
        )

    def test_zero_work_costs_overhead_only(self):
        cost = ComputeCostParameters(
            per_edge_s=1.0, per_node_s=1.0, step_overhead_s=7.0
        )
        assert cost.compute_time(WorkStats(0, 0, 1)) == pytest.approx(7.0)


class TestRoundCommunicationTime:
    def model(self):
        return CostModel(
            NetworkParameters("t", latency_s=0.0, bandwidth_bytes_per_s=1.0)
        )

    def test_critical_path(self):
        traffic = RoundTraffic(messages=[(0, 1, 10), (2, 1, 10)])
        # Host 1 receives 20; hosts 0 and 2 each send 10.
        t = round_communication_time(traffic, 3, self.model())
        assert t == pytest.approx(20.0)

    def test_per_host_extras_shift_critical_path(self):
        traffic = RoundTraffic(messages=[(0, 1, 10)])
        base = round_communication_time(traffic, 2, self.model())
        shifted = round_communication_time(
            traffic, 2, self.model(), per_host_extra_s=[100.0, 0.0]
        )
        assert shifted == pytest.approx(base + 100.0)

    def test_barrier_term_grows_with_hosts(self):
        model = CostModel(
            NetworkParameters("t", latency_s=1.0, bandwidth_bytes_per_s=1e9)
        )
        empty = RoundTraffic()
        t2 = round_communication_time(empty, 2, model)
        t16 = round_communication_time(empty, 16, model)
        assert t16 > t2 > 0

    def test_single_host_is_free(self):
        t = round_communication_time(RoundTraffic(), 1, self.model())
        assert t == 0.0

    def test_concentration_costs_more_than_spread(self):
        """The same bytes on one pair cost more than spread over pairs."""
        concentrated = RoundTraffic(messages=[(0, 1, 30)])
        spread = RoundTraffic(messages=[(0, 1, 10), (2, 3, 10), (4, 5, 10)])
        assert round_communication_time(
            concentrated, 6, self.model()
        ) > round_communication_time(spread, 6, self.model())
