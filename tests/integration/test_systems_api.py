"""Tests for the public systems API (repro.systems)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.graph.generators import star_graph
from repro.systems import (
    ALL_SYSTEMS,
    default_source,
    prepare_input,
    run_app,
)


class TestPrepareInput:
    def test_default_source_is_max_out_degree(self, small_rmat):
        """§5.1: bfs/sssp sources are the maximum out-degree node."""
        source = default_source(small_rmat)
        out_degree = np.bincount(
            small_rmat.src, minlength=small_rmat.num_nodes
        )
        assert out_degree[source] == out_degree.max()

    def test_star_source_is_hub(self):
        assert default_source(star_graph(10)) == 0

    def test_empty_graph_rejected(self):
        from repro.graph.edgelist import EdgeList

        empty = EdgeList(0, np.array([], np.uint32), np.array([], np.uint32))
        with pytest.raises(ExecutionError):
            default_source(empty)

    def test_sssp_gets_weights(self, small_rmat):
        prep = prepare_input("sssp", small_rmat)
        assert prep.edges.has_weights

    def test_bfs_stays_unweighted(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        assert not prep.edges.has_weights

    def test_cc_symmetrized(self, small_rmat):
        prep = prepare_input("cc", small_rmat)
        pairs = set(zip(prep.edges.src.tolist(), prep.edges.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)

    def test_pr_context_carries_global_degrees(self, small_rmat):
        prep = prepare_input("pr", small_rmat)
        assert prep.ctx.global_out_degree is not None
        assert len(prep.ctx.global_out_degree) == small_rmat.num_nodes
        # Counted once and shared with the default-source pick: same
        # values and dtype as a direct count, same source as without it.
        direct = np.bincount(small_rmat.src, minlength=small_rmat.num_nodes)
        assert prep.ctx.global_out_degree.dtype == direct.dtype
        assert np.array_equal(prep.ctx.global_out_degree, direct)
        assert prep.ctx.source == default_source(small_rmat)
        assert prepare_input("bfs", small_rmat).ctx.global_out_degree is None


class TestRunAppValidation:
    def test_unknown_system(self, small_rmat):
        with pytest.raises(ExecutionError, match="unknown system"):
            run_app("spark", "bfs", small_rmat, num_hosts=2)

    def test_unknown_app(self, small_rmat):
        with pytest.raises(ValueError, match="unknown application"):
            run_app("d-galois", "tsp", small_rmat, num_hosts=2)

    def test_shared_memory_systems_single_host_only(self, small_rmat):
        with pytest.raises(ExecutionError, match="shared-memory"):
            run_app("galois", "bfs", small_rmat, num_hosts=2)

    def test_shared_memory_systems_reject_policy(self, small_rmat):
        with pytest.raises(ExecutionError, match="unpartitioned"):
            run_app("ligra", "bfs", small_rmat, num_hosts=1, policy="cvc")

    def test_all_systems_enumerate(self):
        assert set(ALL_SYSTEMS) == {
            "d-galois",
            "d-ligra",
            "d-irgl",
            "d-hybrid",
            "galois",
            "ligra",
            "irgl",
            "gemini",
            "gunrock",
        }


class TestRunAppResults:
    @pytest.mark.parametrize("system", ["galois", "ligra", "irgl"])
    def test_shared_memory_systems_run(self, small_rmat, system):
        result = run_app(system, "bfs", small_rmat, num_hosts=1)
        assert result.converged
        assert result.communication_volume == 0
        assert result.system == system

    def test_result_metadata(self, small_rmat):
        result = run_app(
            "d-ligra", "cc", small_rmat, num_hosts=4, policy="hvc"
        )
        assert result.system == "d-ligra"
        assert result.app == "cc"
        assert result.policy == "hvc"
        assert result.num_hosts == 4
        assert result.construction_time > 0

    def test_summary_roundtrip(self, small_rmat):
        summary = run_app(
            "d-galois", "bfs", small_rmat, num_hosts=2, policy="oec"
        ).summary()
        assert summary["system"] == "d-galois"
        assert summary["converged"] is True

    def test_dirgl_small_gpu_count_uses_intranode_fabric(self, small_rmat):
        intra = run_app("d-irgl", "bfs", small_rmat, num_hosts=4, policy="oec")
        from repro.network.cost_model import LCI_PARAMETERS

        inter = run_app(
            "d-irgl",
            "bfs",
            small_rmat,
            num_hosts=4,
            policy="oec",
            network=LCI_PARAMETERS,
        )
        # Same traffic, faster fabric inside the node.
        assert intra.communication_volume == inter.communication_volume
        assert intra.communication_time < inter.communication_time
