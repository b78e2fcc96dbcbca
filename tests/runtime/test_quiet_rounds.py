"""A quiet host costs no compute, and skipping it changes nothing.

``VertexProgram.empty_frontier_is_idle`` lets the round body skip a host
whose frontier is empty (``runtime.round.run_hosts``).  Three guards:

* the contract itself — every engine's round over an all-False frontier
  of a flagged program writes nothing, touches no state and costs one
  empty step — over every registered program and its ``@optimized`` twin;
* the flag is derived, not declared: exactly the single-stage programs
  whose push phases gather from the frontier alone carry it;
* a run that skips quiet hosts is the run that computes them, bit for
  bit and round for round, and the skip really happens.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.parallel.runner as runner_module
from repro.apps import PROGRAM_SPECS, make_app, runnable_app_names
from repro.compiler.spec import StageSpec
from repro.engines import ENGINE_BY_NAME, make_engine
from repro.engines.ligra import LigraEngine
from repro.graph.generators import grid_graph, rmat
from repro.partition import make_partitioner
from repro.runtime.timing import WorkStats
from repro.service.spec import values_digest
from repro.systems import prepare_input, run_app

GRAPH = rmat(scale=7, edge_factor=8, seed=1)
ANSWER = {"bfs": "dist", "sssp": "dist", "cc": "label"}


FLAGGED = [name for name in runnable_app_names() if make_app(name).empty_frontier_is_idle]


@pytest.mark.parametrize("name", FLAGGED)
def test_a_flagged_programs_empty_frontier_round_is_idle(name):
    app = make_app(name)
    prep = prepare_input(name.split("@")[0], GRAPH, source=0)
    for part in make_partitioner("cvc").partition(prep.edges, 2).partitions:
        frontier = np.empty(0, dtype=np.intp)
        for engine_name in sorted(ENGINE_BY_NAME):
            state = app.make_state(part, prep.ctx)
            before = {key: np.copy(value) for key, value in state.items()}
            outcome = make_engine(engine_name).compute_round(app, part, state, frontier)
            assert len(outcome.updated) == 0, (name, engine_name)
            assert outcome.work == WorkStats(), (name, engine_name)
            for key, value in state.items():
                assert np.array_equal(value, before[key]), (name, engine_name, key)


def test_the_flag_is_derived_from_the_spec():
    assert set(FLAGGED) == {
        "bfs", "cc", "sssp", "bfs@optimized", "cc@optimized", "sssp@optimized",
    }
    # bc is staged (its level counter advances every step), kcore and
    # pr-push carry post lines, the pull programs have no frontier.
    assert not make_app("bc").empty_frontier_is_idle
    assert not make_app("kcore").empty_frontier_is_idle
    # Staging alone withdraws the flag: bfs's own phases, as one stage.
    bfs = PROGRAM_SPECS["bfs"]
    staged = dataclasses.replace(
        bfs, stages=(StageSpec("only", bfs.phases, bfs.sync, bfs.frontier),)
    )
    assert bfs.empty_frontier_is_idle and not staged.empty_frontier_is_idle


def fingerprint(result, key):
    return (
        result.num_rounds,
        result.communication_volume,
        result.communication_messages,
        result.total_time,
        result.translations,
        dict(result.mode_counts),
        [(r.active_nodes, r.comp_time_per_host) for r in result.rounds],
        values_digest(result.executor.gather_result(key)),
    )


@pytest.mark.parametrize(
    "system, runtime",
    [("d-galois", "simulated"), ("d-ligra", "simulated"), ("d-irgl", "simulated"),
     ("d-ligra", "process")],
)
@pytest.mark.parametrize("policy", ["oec", "cvc", "hvc"])
def test_skipping_quiet_hosts_is_invisible(monkeypatch, policy, system, runtime):
    for name, key in ANSWER.items():
        app_cls = type(make_app(name))
        options = dict(policy=policy, source=0, runtime=runtime)
        if runtime == "process":
            options["workers"] = 2
        skipped = run_app(system, name, GRAPH, 4, **options)
        with monkeypatch.context() as patch:
            patch.setattr(app_cls, "empty_frontier_is_idle", False)
            computed = run_app(system, name, GRAPH, 4, **options)
        assert fingerprint(skipped, key) == fingerprint(computed, key), (name, policy)


def test_a_quiet_host_is_never_computed(monkeypatch):
    """On the latency-shaped grid many host-rounds are quiet: the engine
    runs exactly the host-rounds whose frontier is not empty."""
    busy = []
    real_run_hosts = runner_module.run_hosts

    def spy(hosts, engines, app, parts, states, fields, frontiers, *args, **kwargs):
        busy.append(sum(bool(len(frontiers[h])) for h in hosts))
        return real_run_hosts(
            hosts, engines, app, parts, states, fields, frontiers, *args, **kwargs
        )

    computed = []
    real_compute = LigraEngine.compute_round
    monkeypatch.setattr(runner_module, "run_hosts", spy)
    monkeypatch.setattr(
        LigraEngine, "compute_round",
        lambda self, *args: computed.append(1) or real_compute(self, *args),
    )
    result = run_app("d-ligra", "bfs", grid_graph(64, 64), 4, policy="oec")
    assert result.num_rounds == len(busy) == 125  # test_sync_plan.py's literal
    # 189 of the 500 host-rounds are quiet.
    assert len(computed) == sum(busy) == 311
