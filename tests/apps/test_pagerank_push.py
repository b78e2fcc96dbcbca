"""Push-style (residual) pagerank correctness and reset semantics."""

import numpy as np
import pytest

from repro.systems import run_app
from tests.conftest import gather_rank, reference_pagerank

POLICIES = ["oec", "iec", "cvc", "hvc"]


def distributed_push_pr(edges, system="d-galois", tolerance=1e-9, **kwargs):
    result = run_app(
        system, "pr-push", edges, tolerance=tolerance, **kwargs
    )
    return result, gather_rank(result.executor)


@pytest.mark.parametrize("policy", POLICIES)
def test_matches_pull_oracle_all_policies(small_rmat, policy):
    expected = reference_pagerank(small_rmat, tolerance=1e-12)
    result, got = distributed_push_pr(
        small_rmat, num_hosts=4, policy=policy
    )
    assert result.converged
    np.testing.assert_allclose(got, expected, atol=1e-5)


@pytest.mark.parametrize("num_hosts", [1, 2, 6])
def test_matches_oracle_host_counts(small_rmat, num_hosts):
    expected = reference_pagerank(small_rmat, tolerance=1e-12)
    _, got = distributed_push_pr(
        small_rmat, num_hosts=num_hosts, policy="cvc"
    )
    np.testing.assert_allclose(got, expected, atol=1e-5)


@pytest.mark.parametrize("system", ["d-ligra", "d-irgl", "gemini"])
def test_matches_oracle_systems(small_rmat, system):
    expected = reference_pagerank(small_rmat, tolerance=1e-12)
    _, got = distributed_push_pr(small_rmat, system=system, num_hosts=4)
    np.testing.assert_allclose(got, expected, atol=1e-5)


def test_terminates_by_frontier(small_rmat):
    """Residual pagerank is data-driven: it stops when residuals die out,
    not at an iteration cap."""
    result, _ = distributed_push_pr(
        small_rmat, num_hosts=4, policy="cvc", tolerance=1e-6
    )
    assert result.converged
    assert result.rounds[-1].active_nodes == 0


def test_looser_tolerance_fewer_rounds(small_rmat):
    loose, _ = distributed_push_pr(
        small_rmat, num_hosts=4, policy="cvc", tolerance=1e-3
    )
    tight, _ = distributed_push_pr(
        small_rmat, num_hosts=4, policy="cvc", tolerance=1e-10
    )
    assert loose.num_rounds < tight.num_rounds


def test_mirror_residuals_reset_to_zero(small_rmat):
    """§2.3's example: push-pagerank mirrors reset to the ADD identity."""
    result, _ = distributed_push_pr(small_rmat, num_hosts=4, policy="oec")
    executor = result.executor
    for part, state in zip(executor.partitioned.partitions, executor.states):
        mirror_residuals = state["residual"][part.num_masters :]
        # All shipped partials were reset; nothing above tolerance remains.
        assert np.all(mirror_residuals <= 1e-6)


def test_star_graph_ranks():
    from repro.graph.generators import star_graph

    edges = star_graph(10)
    expected = reference_pagerank(edges, tolerance=1e-12)
    _, got = distributed_push_pr(edges, num_hosts=3, policy="cvc")
    np.testing.assert_allclose(got, expected, atol=1e-6)
