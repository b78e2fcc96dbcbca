"""Unit tests for the alpha-beta cost model."""

import pytest

from repro.network.cost_model import (
    LCI_PARAMETERS,
    MPI_PARAMETERS,
    CostModel,
    NetworkParameters,
)


class TestNetworkParameters:
    def test_lci_cheaper_than_mpi(self):
        """Dang et al. [20]: LCI has lower per-message overhead than MPI."""
        assert LCI_PARAMETERS.latency_s < MPI_PARAMETERS.latency_s

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkParameters("bad", latency_s=-1, bandwidth_bytes_per_s=1)
        with pytest.raises(ValueError):
            NetworkParameters("bad", latency_s=0, bandwidth_bytes_per_s=0)


class TestMessageTime:
    def test_alpha_beta_composition(self):
        model = CostModel(
            NetworkParameters("t", latency_s=1.0, bandwidth_bytes_per_s=10.0)
        )
        assert model.message_time(0) == pytest.approx(1.0)
        assert model.message_time(20) == pytest.approx(3.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CostModel().message_time(-1)

    def test_larger_messages_cost_more(self):
        model = CostModel()
        assert model.message_time(1000) > model.message_time(10)

