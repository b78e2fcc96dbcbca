"""Round-level oracle of the index-set contract (``repro.core.index_sets``).

Every frontier, every step's and engine round's written set, every
receive's changed set and every master-side apply's dirty set (hook
results included) that a run produces is a sorted, duplicate-free
``np.intp`` array of local IDs in range — for every frontier program,
on every distributed engine, on both runtimes.  The checks wrap the
seams the sets cross; a forked worker inherits them, so a violation
there fails its round, and shared counters prove each seam was seen.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.parallel.runner as runner_module
import repro.parallel.worker as worker_module
import repro.runtime.round as round_module
from repro.apps import PROGRAM_SPECS, make_app
from repro.core.substrate import GluonSubstrate
from repro.engines import GaloisEngine, IrGLEngine, LigraEngine
from repro.graph.generators import rmat
from repro.systems import run_app
from tests.conftest import DISTRIBUTED_SYSTEMS

GRAPH = rmat(scale=7, edge_factor=8, seed=3)
FRONTIER_PROGRAMS = sorted(name for name, spec in PROGRAM_SPECS.items() if spec.uses_frontier)
SEAMS = ("initial", "step", "engine", "stage", "receive", "apply", "round")


def check(ids, n, seam):
    assert isinstance(ids, np.ndarray), seam
    assert ids.dtype == np.intp and ids.ndim == 1, (seam, ids.dtype)
    assert (ids[1:] > ids[:-1]).all(), (seam, "not sorted and unique")
    assert len(ids) == 0 or 0 <= ids[0] <= ids[-1] < n, (seam, "out of range")


@pytest.fixture
def seen(monkeypatch):
    """Install the checks; returns the per-seam count of checked sets."""
    counts = multiprocessing.get_context("fork").Array("i", len(SEAMS))

    def saw(seam):
        with counts.get_lock():
            counts[SEAMS.index(seam)] += 1

    for name in FRONTIER_PROGRAMS:
        cls = type(make_app(name))

        def initial(self, part, state, ctx, real=cls.initial_frontier):
            frontier = real(self, part, state, ctx)
            check(frontier, part.num_nodes, "initial")
            saw("initial")
            return frontier

        def step(self, part, state, frontier, direction="push", real=cls.step):
            check(frontier, part.num_nodes, "step frontier")
            outcome = real(self, part, state, frontier, direction)
            check(outcome.updated, part.num_nodes, "step")
            saw("step")
            return outcome

        monkeypatch.setattr(cls, "initial_frontier", initial)
        monkeypatch.setattr(cls, "step", step)

    for engine in (GaloisEngine, LigraEngine, IrGLEngine):
        def compute_round(self, app, part, state, frontier, real=engine.compute_round):
            check(frontier, part.num_nodes, "engine frontier")
            outcome = real(self, app, part, state, frontier)
            check(outcome.updated, part.num_nodes, "engine")
            saw("engine")
            return outcome

        monkeypatch.setattr(engine, "compute_round", compute_round)

    def stage(self, field_index, field, dirty, phase, real=GluonSubstrate._stage):
        check(dirty, self.num_local_nodes, f"{phase} stage")
        saw("stage")
        return real(self, field_index, field, dirty, phase)

    def receive(self, fields, phase, real=GluonSubstrate._receive_all):
        changed = real(self, fields, phase)
        for ids in changed:
            if ids is not None:
                check(ids, self.num_local_nodes, f"{phase} receive")
                saw("receive")
        return changed

    monkeypatch.setattr(GluonSubstrate, "_stage", stage)
    monkeypatch.setattr(GluonSubstrate, "_receive_all", receive)

    def broadcast_dirty(part, field, changed, outcome, *args, real=round_module.broadcast_dirty):
        dirty = real(part, field, changed, outcome, *args)
        check(dirty, part.num_nodes, "apply")
        assert len(dirty) == 0 or dirty[-1] < part.num_masters, "apply: a mirror"
        saw("apply")
        return dirty

    monkeypatch.setattr(round_module, "broadcast_dirty", broadcast_dirty)

    for module in (runner_module, worker_module):
        def run_hosts(hosts, engines, app, parts, states, fields, frontiers, *args,
                      real=module.run_hosts, **kwargs):
            for h in hosts:
                check(frontiers[h], parts[h].num_nodes, "round frontier")
            result = real(hosts, engines, app, parts, states, fields, frontiers,
                          *args, **kwargs)
            _, next_frontiers, active, _ = result
            for h in hosts:
                check(next_frontiers[h], parts[h].num_nodes, "round")
                assert active[h] == len(next_frontiers[h]), "round: active count"
            saw("round")
            return result

        monkeypatch.setattr(module, "run_hosts", run_hosts)
    return counts


@pytest.mark.parametrize("runtime", ["simulated", "process"])
@pytest.mark.parametrize("system", DISTRIBUTED_SYSTEMS)
def test_every_set_a_round_hands_on_is_sorted_unique_intp_in_range(seen, system, runtime):
    options = {"runtime": "process", "workers": 2} if runtime == "process" else {}
    for name in FRONTIER_PROGRAMS:
        result = run_app(system, name, GRAPH, 3, policy="cvc", source=0, **options)
        assert result.converged, name
    counts = dict(zip(SEAMS, seen[:]))
    assert all(counts.values()), counts
