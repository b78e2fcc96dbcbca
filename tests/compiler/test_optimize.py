"""The optimizing compile path (`compile_program(optimize=True)`).

GL301 dead-sync elimination and GL302 phase fusion must be *invisible*
in results — bitwise identical to the bare-name program across
policies, host counts, and runtimes — and *visible* on the wire:
at `OptimizationLevel.OTI` (where structural elision doesn't already
zero the dead phases) the eliminated syncs cut real message counts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import APP_BY_NAME, make_app
from repro.apps.specs import (
    PROGRAM_SPECS,
    base_app_name,
    optimized_app_names,
)
from repro.compiler import compile_program, render_program
from repro.core.optimization import OptimizationLevel
from repro.graph.generators import rmat
from repro.systems import run_app
from repro.verify import output_key

from tests.analysis.test_dataflow import EXPECTED_DEAD, fuse_spec

MIGRATED = sorted(PROGRAM_SPECS)
POLICIES = ("oec", "iec", "cvc", "hvc", "jagged", "random")
HOSTS = (1, 2, 4, 8)

GRAPH = rmat(scale=8, edge_factor=8, seed=7)


def _pair(app, hosts, policy, runtime="simulated", level=None):
    plain = run_app(
        "d-galois", app, GRAPH, num_hosts=hosts,
        policy=policy, runtime=runtime, level=level,
    )
    optimized = run_app(
        "d-galois", app + "@optimized", GRAPH, num_hosts=hosts,
        policy=policy, runtime=runtime, level=level,
    )
    return plain, optimized


def _assert_bitwise(app, plain, optimized, rounds=True):
    key = output_key(app)
    expected = plain.executor.gather_result(key)
    got = optimized.executor.gather_result(key)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected), f"{app}: optimizer diverged"
    if rounds:
        assert len(optimized.rounds) == len(plain.rounds)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("app", MIGRATED)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        policy=st.sampled_from(POLICIES),
        hosts=st.sampled_from(HOSTS),
    )
    def test_identical_across_policies_and_hosts(self, app, policy, hosts):
        plain, optimized = _pair(app, hosts, policy)
        _assert_bitwise(app, plain, optimized)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("hosts", HOSTS)
    def test_sssp_full_matrix(self, policy, hosts):
        """The spec with the richest dead-sync table, exhaustively."""
        plain, optimized = _pair("sssp", hosts, policy)
        _assert_bitwise("sssp", plain, optimized)

    @pytest.mark.parametrize("level", ("unopt", "osti"))
    @pytest.mark.parametrize("hosts", (1, 4))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_staged_bc_full_matrix(self, policy, hosts, level):
        """bc's dead phases fall in both stages (dist and sigma_acc's
        reduce under IEC, delta_acc's reduce under OEC and broadcast under
        IEC): every cell bitwise equal, never more messages."""
        plain, optimized = _pair(
            "bc", hosts, policy, level=OptimizationLevel.from_name(level)
        )
        _assert_bitwise("bc", plain, optimized)
        assert optimized.communication_messages <= plain.communication_messages

    @pytest.mark.parametrize("app", ("bfs", "cc"))
    def test_identical_on_process_runtime(self, app):
        plain, optimized = _pair(app, 2, "cvc", runtime="process")
        _assert_bitwise(app, plain, optimized)

    @pytest.mark.parametrize("app", ("bfs", "sssp", "cc", "pr"))
    @pytest.mark.parametrize("policy", ("iec", "oec"))
    def test_identical_at_oti(self, app, policy):
        """Same answers where the cut is actually measurable.

        Round counts may legitimately drift by one at OTI: with a dead
        broadcast eliminated, a mirror's stale copy can improve through
        a local scatter to a value still above the master's — one
        redundant reduce round of zero-progress activity (bounded: the
        mirror value is monotone and floored by the master's).  Values
        must stay bitwise identical regardless.
        """
        plain, optimized = _pair(
            app, 4, policy, level=OptimizationLevel.OTI,
        )
        _assert_bitwise(app, plain, optimized, rounds=False)


class TestMessageCut:
    """GL301 must pay for itself: fewer messages, not just a claim."""

    def test_sssp_iec_cut_at_oti(self):
        plain, optimized = _pair(
            "sssp", 4, "iec", level=OptimizationLevel.OTI,
        )
        assert (
            optimized.communication_messages
            < plain.communication_messages
        )
        assert optimized.communication_volume < plain.communication_volume

    def test_bfs_oec_broadcast_cut(self):
        """bfs's pull reads no destination value, so under OEC (every
        source a master) its broadcast is dead and the cut is real."""
        plain, optimized = _pair(
            "bfs", 4, "oec", level=OptimizationLevel.OTI,
        )
        _assert_bitwise("bfs", plain, optimized, rounds=False)
        assert (
            optimized.communication_messages
            < plain.communication_messages
        )

    def test_already_zero_at_default_level(self):
        """At OSTI, structural elision ships zero payloads for the dead
        phases anyway — elimination must not *increase* anything."""
        plain, optimized = _pair("bfs", 4, "iec")
        assert (
            optimized.communication_messages
            <= plain.communication_messages
        )


class TestFusion:
    def test_fused_fixture_bitwise_identical(self, monkeypatch):
        spec = fuse_spec()
        monkeypatch.setitem(PROGRAM_SPECS, spec.name, spec)
        monkeypatch.setitem(
            APP_BY_NAME, spec.name, type(compile_program(spec))
        )
        for policy in ("cvc", "iec", "oec"):
            plain, optimized = _pair(spec.name, 4, policy)
            for key in ("a", "b"):
                expected = plain.executor.gather_result(key)
                got = optimized.executor.gather_result(key)
                assert np.array_equal(got, expected), (policy, key)
            assert len(optimized.rounds) == len(plain.rounds)

    def test_fused_source_shares_one_gather(self):
        plain = render_program(fuse_spec())
        optimized = render_program(fuse_spec(), optimize=True)
        assert plain.count("gather_frontier_edges(part.graph") == 2
        assert optimized.count("gather_frontier_edges(part.graph") == 1


class TestGeneratedArtifacts:
    def test_optimized_app_attrs(self):
        app = make_app("bfs@optimized")
        assert app.__class__.name == "bfs@optimized"
        assert app.__class__.optimized is True
        assert "_DEAD_SYNC" in app.__class__.generated_source

    def test_bare_name_is_unoptimized(self):
        app = make_app("bfs")
        assert app.__class__.optimized is False
        assert "_DEAD_SYNC" not in app.__class__.generated_source

    def test_dead_sync_table_embedded_verbatim(self):
        source = render_program(PROGRAM_SPECS["sssp"], optimize=True)
        assert "_DEAD_SYNC" in source
        namespace = {}
        exec(  # noqa: S102 - asserting on our own generated module
            compile(source, "<generated sssp@optimized>", "exec"),
            namespace,
        )
        table = {
            strategy: {
                wire: tuple(sorted(phases))
                for wire, phases in wires.items()
            }
            for strategy, wires in namespace["_DEAD_SYNC"].items()
        }
        assert table == EXPECTED_DEAD["sssp"]

    def test_optimized_names_registered(self):
        names = optimized_app_names()
        assert "bfs@optimized" in names
        assert len(names) == len(PROGRAM_SPECS)

    def test_name_helpers(self):
        assert base_app_name("sssp@optimized") == "sssp"
        assert base_app_name("sssp") == "sssp"

    def test_variants_are_distinct_classes_built_once(self):
        plain = make_app("bfs")
        optimized = make_app("bfs@optimized")
        assert plain.__class__ is not optimized.__class__
        assert optimized.__class__ is make_app("bfs@optimized").__class__
